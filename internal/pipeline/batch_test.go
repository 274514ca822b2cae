package pipeline

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/mem"
	"repro/internal/trace"
)

// batchTestBenches are small suite members covering loads, stores, branches,
// register jumps, and mult/div — every scheduling path in the engine.
var batchTestBenches = []string{"dijkstra", "g711dec", "rawdaudio"}

func captureBench(t *testing.T, name string) *trace.Capture {
	t.Helper()
	b, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	cp, err := trace.CaptureRun(context.Background(), b)
	if err != nil {
		t.Fatalf("capture %s: %v", name, err)
	}
	return cp
}

// mappedBench persists cp as SIGCAP02 and opens the mapped tier over it.
func mappedBench(t *testing.T, cp *trace.Capture) *trace.MappedCapture {
	t.Helper()
	path, err := trace.WriteCaptureFile(t.TempDir(), cp)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := trace.OpenMappedCapture(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mc.Close() })
	return mc
}

// wideHierarchy is a non-default geometry whose memory stalls overflow a
// byte: 2 KB L1s in front of a 300-cycle memory.
func wideHierarchy() mem.HierarchyConfig {
	cfg := memDefaultConfigSmall()
	cfg.MemCycles = 300
	return cfg
}

// oracleVariant is one model configuration of the equivalence matrix: how
// to build the kernel instance and its oracle twin.
type oracleVariant struct {
	kernel, oracle func() *Model
}

// oracleVariants is every model configuration production runs: the twelve
// registered models, every predicted variant, the two ablation alternates,
// SetHierarchy models (one of them on a geometry with stalls above 255
// cycles), and Timeline-observed models of both scheduler families.
func oracleVariants() map[string]oracleVariant {
	same := func(ctor func() *Model) oracleVariant { return oracleVariant{ctor, ctor} }
	vs := map[string]oracleVariant{
		NameCompressedOccupancy: same(NewParallelCompressedOccupancy),
		NameSkewedLateBranch:    same(NewParallelSkewedLateBranch),
	}
	for _, name := range AllNames() {
		name := name
		vs[name] = same(func() *Model { return New(name) })
		vs[name+"+bp"] = same(func() *Model { return NewPredicted(name) })
	}
	for _, h := range []struct {
		label string
		cfg   mem.HierarchyConfig
	}{{"2KB", memDefaultConfigSmall()}, {"2KB-mem300", wideHierarchy()}} {
		cfg := h.cfg
		for _, name := range []string{NameBaseline32, NameByteSerial, NameDualCompress4} {
			name := name
			vs[name+"@"+h.label] = oracleVariant{
				kernel: func() *Model { return New(name).SetHierarchy(cfg) },
				oracle: func() *Model { return withRefHierarchy(New(name), cfg) },
			}
		}
	}
	for _, name := range []string{NameParallelSkewedBypass, NameDualCompress4} {
		name := name
		vs[name+"/timeline"] = same(func() *Model {
			m := New(name)
			NewTimeline(m, 64)
			return m
		})
	}
	return vs
}

// TestConsumeBlockMatchesConsume pins every block kernel to the reference
// oracle (oracle_test.go): for every model configuration and benchmark,
// ConsumeBlock must produce exactly the same Result (cycles, instruction
// count, every stall bucket), predictor accuracy, fetch-unit counters and
// Timeline rows as the event-at-a-time Consume over a private hierarchy —
// with the miss stream built inline by the first replay (cold), read back
// from the capture (warm), and built inline by the mapped tier (mapped).
func TestConsumeBlockMatchesConsume(t *testing.T) {
	variants := oracleVariants()
	for _, bn := range batchTestBenches {
		cp := captureBench(t, bn)
		mc := mappedBench(t, cp)
		// The cold pass must be the capture's first replay.
		for _, pass := range []struct {
			name string
			src  trace.Replayer
		}{{"cold", cp}, {"warm", cp}, {"mapped", mc}} {
			labels := make([]string, 0, len(variants))
			kernels := make([]*Model, 0, len(variants))
			consumers := make([]trace.Consumer, 0, len(variants))
			for label, v := range variants {
				m := v.kernel()
				labels = append(labels, label)
				kernels = append(kernels, m)
				consumers = append(consumers, m)
			}
			if err := pass.src.ReplayBlocks(testCtx, testRecoder, consumers...); err != nil {
				t.Fatalf("%s %s replay: %v", bn, pass.name, err)
			}
			for i, label := range labels {
				oracle := variants[label].oracle()
				if err := oracleReplay(cp, oracle); err != nil {
					t.Fatalf("%s/%s oracle replay: %v", bn, label, err)
				}
				assertSameModel(t, bn+"/"+pass.name+"/"+label, oracle, kernels[i])
			}
		}
	}
}

// assertSameModel compares everything a model reports.
func assertSameModel(t *testing.T, what string, want, got *Model) {
	t.Helper()
	if w, g := want.Result(), got.Result(); !reflect.DeepEqual(w, g) {
		t.Errorf("%s: kernel result diverges\noracle: %+v\nkernel: %+v", what, w, g)
	}
	if w, g := want.PredictorAccuracy(), got.PredictorAccuracy(); w != g {
		t.Errorf("%s: predictor accuracy diverges: oracle %v kernel %v", what, w, g)
	}
	if w, g := want.FetchUnit(), got.FetchUnit(); !reflect.DeepEqual(w, g) {
		t.Errorf("%s: fetch-unit counters diverge\noracle: %+v\nkernel: %+v", what, w, g)
	}
	if (want.observer == nil) != (got.observer == nil) {
		t.Fatalf("%s: only one side observed", what)
	}
}

// TestTimelineKernelMatchesOracle renders the pipeline diagram from both
// schedulers: the kernel must report the same stage entries, occupancies
// and skips per instruction as the oracle.
func TestTimelineKernelMatchesOracle(t *testing.T) {
	cp := captureBench(t, "dijkstra")
	for _, name := range []string{NameBaseline32, NameByteSerial, NameSemiParallel, NameParallelCompressed,
		NameParallelSkewedBypass, NameDualCompress4} {
		oracle, kernel := New(name), New(name)
		want, got := NewTimeline(oracle, 200), NewTimeline(kernel, 200)
		if err := oracleReplay(cp, oracle); err != nil {
			t.Fatal(err)
		}
		if err := cp.ReplayBlocks(testCtx, testRecoder, kernel); err != nil {
			t.Fatal(err)
		}
		if w, g := want.Render(), got.Render(); w != g {
			t.Errorf("%s: timeline diverges\noracle:\n%s\nkernel:\n%s", name, w, g)
		}
	}
}

// TestConsumeBlockSplitBlocks feeds the same trace through ConsumeBlock in
// deliberately tiny, unevenly sized blocks to verify the scheduler state
// carries correctly across block boundaries (NextPC of a block's last row,
// prevEnter/no-passing coupling, fetch blocking), for the default stream
// and for a SetHierarchy model's own.
func TestConsumeBlockSplitBlocks(t *testing.T) {
	cp := captureBench(t, "dijkstra")
	for _, ctor := range []func() *Model{
		NewByteSerial,
		func() *Model { return NewByteSerial().SetHierarchy(wideHierarchy()) },
	} {
		whole := ctor()
		if err := cp.ReplayBlocks(testCtx, testRecoder, whole); err != nil {
			t.Fatalf("whole-block replay: %v", err)
		}
		split := ctor()
		var rows int
		err := cp.ReplayBlocks(testCtx, testRecoder, blockFunc(func(b *trace.Block) {
			n := b.Len()
			for lo := 0; lo < n; {
				hi := lo + 1 + (lo % 7)
				if hi > n {
					hi = n
				}
				sub := subBlock(b, lo, hi)
				split.ConsumeBlock(&sub)
				rows += hi - lo
				lo = hi
			}
		}))
		if err != nil {
			t.Fatalf("split replay: %v", err)
		}
		if rows != cp.Len() {
			t.Fatalf("sub-blocks covered %d rows, capture has %d", rows, cp.Len())
		}
		if want, got := whole.Result(), split.Result(); !reflect.DeepEqual(want, got) {
			t.Errorf("sub-block result diverges\nwhole: %+v\nsplit: %+v", want, got)
		}
	}
}
