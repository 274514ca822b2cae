package activity

import (
	"fmt"

	"repro/internal/sig"
)

// This file gives the suite-level collectors a wire representation: raw,
// order-independent count state that can be serialized by one process and
// folded into a live collector by another. It is the cross-node form of the
// Merge invariant — a shard evaluates its benchmark partition, ships State,
// and the gateway's AddState recombines the tallies to exactly what one
// shared collector fed the whole suite would hold. Only integer counts
// cross the wire; every percentage is derived after merging, so the result
// is bit-identical regardless of how the suite was partitioned.

// PatternState is the wire form of a PatternStats tally.
type PatternState struct {
	Counts map[string]uint64 `json:"counts,omitempty"`
	Total  uint64            `json:"total"`
}

// State returns a copy of the raw tally for transport. Patterns never seen
// are omitted.
func (p *PatternStats) State() PatternState {
	counts := make(map[string]uint64, len(p.counts))
	for e, n := range p.counts {
		if n > 0 {
			counts[sig.Ext3(e).Pattern()] = n
		}
	}
	return PatternState{Counts: counts, Total: p.total}
}

// AddState folds a transported tally into p (order-independent sums). It
// rejects, leaving p unchanged, a key that is not one of sig.AllPatterns
// and a Total that is not the sum of Counts: either would make Table 1's
// rows stop summing to 100%.
func (p *PatternStats) AddState(st PatternState) error {
	var add [8]uint64
	var sum uint64
	for pat, n := range st.Counts {
		e, ok := patternExt(pat)
		if !ok {
			return fmt.Errorf("activity: pattern state has unknown pattern %q", pat)
		}
		add[e] += n
		sum += n
	}
	if sum != st.Total {
		return fmt.Errorf("activity: pattern state counts sum to %d, total says %d", sum, st.Total)
	}
	for e, n := range add {
		p.counts[e] += n
	}
	p.total += st.Total
	return nil
}

// PartitionState is the wire form of a PartitionStats tally. Names pins the
// candidate-set identity so tallies from mismatched builds cannot silently
// combine.
type PartitionState struct {
	Names  []string `json:"names"`
	Bits   []uint64 `json:"bits"`
	Values uint64   `json:"values"`
}

// State returns a copy of the raw tally for transport.
func (ps *PartitionStats) State() PartitionState {
	return PartitionState{
		Names:  append([]string(nil), ps.names...),
		Bits:   append([]uint64(nil), ps.bits...),
		Values: ps.values,
	}
}

// AddState folds a transported tally into ps, rejecting a candidate set
// that does not match this build's sig.CandidatePartitions.
func (ps *PartitionStats) AddState(st PartitionState) error {
	if len(st.Names) != len(ps.names) || len(st.Bits) != len(ps.bits) {
		return fmt.Errorf("activity: partition state has %d/%d candidates, want %d", len(st.Names), len(st.Bits), len(ps.names))
	}
	for i, n := range st.Names {
		if n != ps.names[i] {
			return fmt.Errorf("activity: partition state candidate %d is %q, want %q", i, n, ps.names[i])
		}
	}
	ps.values += st.Values
	for i := range ps.bits {
		ps.bits[i] += st.Bits[i]
	}
	return nil
}

// Width64State is the wire form of a Width64Stats tally.
type Width64State struct {
	Bits32 uint64 `json:"bits32"`
	Bits64 uint64 `json:"bits64"`
	Values uint64 `json:"values"`
}

// State returns a copy of the raw tally for transport.
func (w *Width64Stats) State() Width64State {
	return Width64State{Bits32: w.bits32, Bits64: w.bits64, Values: w.values}
}

// AddState folds a transported tally into w (order-independent sums).
func (w *Width64Stats) AddState(st Width64State) {
	w.bits32 += st.Bits32
	w.bits64 += st.Bits64
	w.values += st.Values
}
