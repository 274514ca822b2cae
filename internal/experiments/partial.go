package experiments

import (
	"fmt"

	"repro/internal/activity"
	"repro/internal/bmgating"
	"repro/internal/icomp"
	"repro/internal/isa"
	"repro/internal/pcincr"
)

// This file is the cross-node form of the suite evaluation: one shard
// evaluates a subset of the benchmark suite and exports a PartialSuite; a
// gateway merges any number of partials — in any grouping — back into the
// complete JSONResults. Because every suite-level collector travels as raw
// count state (see activity/state.go, bmgating/state.go) and every derived
// figure is computed only after the merge, a suite scattered over N shards
// encodes byte-identically to a single-process run. This is the PR 2 merge
// invariant promoted to a fan-in contract between machines.

// CollectorsState is the wire form of a SuiteCollectors set.
type CollectorsState struct {
	Patterns   activity.PatternState     `json:"patterns"`
	Fetch      activity.FetchStats       `json:"fetch"`
	Partitions activity.PartitionState   `json:"partitions"`
	Width64    activity.Width64State     `json:"width64"`
	Frontend   activity.FrontendState    `json:"frontend"`
	BM         map[string]bmgating.State `json:"bmGating,omitempty"`
}

// State exports the collector set's raw tallies for transport.
func (sc *SuiteCollectors) State() CollectorsState {
	st := CollectorsState{
		Patterns:   sc.Patterns.State(),
		Fetch:      *sc.Fetch,
		Partitions: sc.Partitions.State(),
		Width64:    sc.Width64.State(),
		Frontend:   sc.Frontend.State(),
		BM:         make(map[string]bmgating.State, len(sc.BM)),
	}
	for name, col := range sc.BM {
		st.BM[name] = col.State()
	}
	return st
}

// AddState folds a transported collector set into sc. Like Merge, the sums
// are order-independent, so any grouping of partial states recombines to
// one shared collector set's tallies.
func (sc *SuiteCollectors) AddState(st CollectorsState) error {
	if err := sc.Patterns.AddState(st.Patterns); err != nil {
		return err
	}
	sc.Fetch.Merge(&st.Fetch)
	if err := sc.Partitions.AddState(st.Partitions); err != nil {
		return err
	}
	sc.Width64.AddState(st.Width64)
	sc.Frontend.AddState(st.Frontend)
	for name, bm := range st.BM {
		col, ok := sc.BM[name]
		if !ok {
			col = bmgating.NewCollector()
			sc.BM[name] = col
		}
		col.AddState(bm)
	}
	return nil
}

// PartialSuite is one shard's share of a scattered suite evaluation: the
// fully-encoded per-benchmark results for its partition plus the raw
// suite-level collector state over exactly those benchmarks. Functs is the
// dynamic function-code profile of the shard's whole served suite — it is
// an input to the recoder, not a per-partition tally, so every shard
// serving the same suite reports an identical section and the gateway may
// take it from any one of them.
type PartialSuite struct {
	Benchmarks []BenchJSON     `json:"benchmarks"`
	Functs     []FunctJSON     `json:"functProfile"`
	Collectors CollectorsState `json:"collectors"`
}

// MergePartials recombines shard partials into the complete evaluation
// JSON. order is the full suite's benchmark order (the single-process
// serving order); every name in it must appear in exactly one partial. The
// returned instruction total is the sum over the ordered benchmarks,
// matching the single-process suite response.
func MergePartials(order []string, parts []*PartialSuite) (*JSONResults, uint64, error) {
	if len(parts) == 0 {
		return nil, 0, fmt.Errorf("experiments: no suite partials to merge")
	}
	byName := make(map[string]BenchJSON)
	master := NewSuiteCollectors()
	for _, p := range parts {
		if p == nil {
			return nil, 0, fmt.Errorf("experiments: nil suite partial")
		}
		for _, b := range p.Benchmarks {
			if _, dup := byName[b.Name]; dup {
				return nil, 0, fmt.Errorf("experiments: benchmark %q appears in more than one partial", b.Name)
			}
			byName[b.Name] = b
		}
		if err := master.AddState(p.Collectors); err != nil {
			return nil, 0, err
		}
	}
	out := &JSONResults{
		PCIncr: pcincr.Table2(),
		Functs: parts[0].Functs,
	}
	var insts uint64
	for _, name := range order {
		b, ok := byName[name]
		if !ok {
			return nil, 0, fmt.Errorf("experiments: benchmark %q missing from merged partials", name)
		}
		out.Benchmarks = append(out.Benchmarks, b)
		insts += b.Insts
	}
	if extra := len(byName) - len(order); extra > 0 {
		return nil, 0, fmt.Errorf("experiments: partials carry %d benchmarks not in suite order", extra)
	}
	out.Patterns = EncodePatterns(master.Patterns)
	out.Fetch = EncodeFetch(master.Fetch)
	out.Partitions = EncodePartitions(master.Partitions)
	out.BMGating = EncodeBM(order, master.BM)
	out.Width64 = EncodeWidth64(master.Width64)
	out.Frontend = EncodeFrontend(master.Frontend)
	return out, insts, nil
}

// EncodePatterns renders the Table 1 pattern profile section.
func EncodePatterns(p *activity.PatternStats) []PatternJSON {
	var out []PatternJSON
	for _, row := range p.Rows() {
		out = append(out, PatternJSON{
			Pattern: row.Pattern, Percent: row.Percent,
			Cumulative: row.Cumulative, TwoBitOK: row.TwoBitOK,
		})
	}
	return out
}

// EncodeFuncts renders the Table 3 function-code profile section.
func EncodeFuncts(functs map[isa.Funct]uint64, rc *icomp.Recoder) []FunctJSON {
	var total uint64
	for _, n := range functs {
		total += n
	}
	var out []FunctJSON
	for _, fn := range icomp.TopFuncts(functs, 64) {
		out = append(out, FunctJSON{
			Funct:   isa.FunctName(fn),
			Percent: pct(functs[fn], total),
			Compact: rc.IsCompact(fn),
		})
	}
	return out
}

// EncodeFetch renders the §2.3 instruction-compression section.
func EncodeFetch(f *activity.FetchStats) FetchJSON {
	return FetchJSON{
		MeanBytes:        f.MeanBytes(),
		MeanBytesWithExt: f.MeanBytesWithExt(),
		ThreeByteShare:   pct(f.ThreeByte, f.Insts),
	}
}

// EncodeFrontend renders the compressed-fetch frontend profile section.
func EncodeFrontend(f *activity.FrontendStats) FrontendJSON {
	return FrontendJSON{
		CompressedShare: f.CompressedShare(),
		PairShare:       f.PairShare(),
		MeanRunLength:   f.MeanRunLength(),
	}
}

// EncodePartitions renders the register-partitioning ablation section.
func EncodePartitions(ps *activity.PartitionStats) []PartitionRowJSON {
	var out []PartitionRowJSON
	for _, row := range ps.Rows() {
		out = append(out, PartitionRowJSON{
			Partition: row.Name, MeanBits: row.MeanBits, Saving: row.Saving,
		})
	}
	return out
}

// EncodeBM renders the Brooks-Martonosi baseline section in benchmark
// (not map) order, keeping the encoding deterministic.
func EncodeBM(order []string, bm map[string]*bmgating.Collector) []BMJSON {
	var out []BMJSON
	for _, name := range order {
		col, ok := bm[name]
		if !ok {
			continue
		}
		out = append(out, BMJSON{
			Benchmark:   name,
			ALUSaving:   col.ALUSaving(),
			NarrowShare: col.NarrowShare(),
		})
	}
	return out
}

// EncodeWidth64 renders the §2.9 64-bit-ISA projection section.
func EncodeWidth64(w *activity.Width64Stats) Width64JSON {
	return Width64JSON{Saving32: w.Saving32(), Saving64: w.Saving64()}
}
