package activity

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/icomp"
	"repro/internal/trace"
)

// collectorConfigs are the granularity/scheme combinations production runs.
var collectorConfigs = []struct {
	label  string
	g      int
	scheme Scheme
}{
	{"byte/3bit", 1, Scheme3},
	{"byte/2bit", 1, Scheme2},
	{"half", 2, Scheme3},
}

// TestCollectorBatchIdentical pins the collector's kernel to the reference
// oracle (oracle_test.go): replaying a capture through ConsumeBlock must
// produce exactly the same Counts as the event-at-a-time Consume over a
// private hierarchy, at every granularity and scheme, with the miss stream
// built inline by the first replay (cold), read back from the capture
// (warm), and built inline by the mapped tier (mapped). This also
// exercises the engines' store-delimited spans — the collector reads
// cache-line contents from program memory at fill time, so any
// store-ordering error shows up as a fill-bit diff.
func TestCollectorBatchIdentical(t *testing.T) {
	ctx := context.Background()
	rc := icomp.MustNewRecoder(icomp.DefaultTopFuncts())
	for _, bn := range []string{"dijkstra", "g711dec", "rawdaudio"} {
		b, ok := bench.ByName(bn)
		if !ok {
			t.Fatalf("unknown benchmark %q", bn)
		}
		cp, err := trace.CaptureRun(ctx, b)
		if err != nil {
			t.Fatalf("capture %s: %v", bn, err)
		}
		path, err := trace.WriteCaptureFile(t.TempDir(), cp)
		if err != nil {
			t.Fatal(err)
		}
		mc, err := trace.OpenMappedCapture(path)
		if err != nil {
			t.Fatal(err)
		}
		defer mc.Close()

		// The cold pass must be the capture's first replay.
		for _, pass := range []struct {
			name string
			src  trace.Replayer
		}{{"cold", cp}, {"warm", cp}, {"mapped", mc}} {
			m, err := pass.src.NewMemory()
			if err != nil {
				t.Fatal(err)
			}
			var kernels []*Collector
			var consumers []trace.Consumer
			for _, cfg := range collectorConfigs {
				c := NewCollectorScheme(cfg.g, cfg.scheme, rc, m)
				kernels = append(kernels, c)
				consumers = append(consumers, c)
			}
			if err := pass.src.ReplayBlocksOn(ctx, m, rc, consumers...); err != nil {
				t.Fatalf("%s %s replay: %v", bn, pass.name, err)
			}
			for i, cfg := range collectorConfigs {
				mo, err := cp.NewMemory()
				if err != nil {
					t.Fatal(err)
				}
				oracle := NewCollectorScheme(cfg.g, cfg.scheme, rc, mo)
				if err := cp.ReplayBlocksOn(ctx, mo, rc, eventFunc(oracle.Consume)); err != nil {
					t.Fatalf("%s oracle replay: %v", bn, err)
				}
				if oracle.Counts() != kernels[i].Counts() {
					t.Errorf("%s/%s/%s: kernel counts diverge\noracle: %+v\nkernel: %+v",
						bn, pass.name, cfg.label, oracle.Counts(), kernels[i].Counts())
				}
			}
		}
	}
}

// TestSuiteCollectorsBatchIdentical pins the suite-level collectors'
// kernels (patterns, fetch mix, partitions, 64-bit projection, frontend
// opportunity) to their oracles on real benchmark captures. The pattern,
// partition and 64-bit oracles tally with the reference formulas
// (sig.PatternOf, sig.Partition.StoredBits per candidate, sig.StoredBits64
// of sig.Extend64), not the kernels' arithmetic, and are compared through
// the wire State; the fetch and frontend pairs compare whole structs.
func TestSuiteCollectorsBatchIdentical(t *testing.T) {
	ctx := context.Background()
	rc := icomp.MustNewRecoder(icomp.DefaultTopFuncts())
	for _, bn := range []string{"dijkstra", "g711dec", "rawdaudio"} {
		b, _ := bench.ByName(bn)
		src := trace.NewLive(b)
		type pair struct {
			kernel trace.Consumer
			oracle func(trace.Event)
			got    func() any
			want   func() any
		}
		pk, po := NewPatternStats(), newRefPatterns()
		fk, fo := &FetchStats{}, &FetchStats{}
		sk, so := NewPartitionStats(), newRefPartitions()
		wk, wo := NewWidth64Stats(), &refWidth64{}
		ek, eo := NewFrontendStats(), NewFrontendStats()
		pairs := map[string]pair{
			"patterns":   {pk, po.Consume, func() any { return pk.State() }, func() any { return po.State() }},
			"fetch":      {fk, fo.Consume, func() any { return *fk }, func() any { return *fo }},
			"partitions": {sk, so.Consume, func() any { return sk.State() }, func() any { return so.State() }},
			"width64":    {wk, wo.Consume, func() any { return wk.State() }, func() any { return wo.State() }},
			"frontend":   {ek, eo.Consume, func() any { return *ek }, func() any { return *eo }},
		}
		var consumers []trace.Consumer
		for _, p := range pairs {
			consumers = append(consumers, p.kernel, eventFunc(p.oracle))
		}
		if err := src.ReplayBlocks(ctx, rc, consumers...); err != nil {
			t.Fatalf("%s replay: %v", bn, err)
		}
		for name, p := range pairs {
			if !reflect.DeepEqual(p.want(), p.got()) {
				t.Errorf("%s/%s: kernel diverges\noracle: %+v\nkernel: %+v", bn, name, p.want(), p.got())
			}
		}
		if pk.Total() == 0 || fk.Insts == 0 {
			t.Errorf("%s: degenerate tallies", bn)
		}
	}
}
