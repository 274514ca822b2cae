package experiments

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/icomp"
	"repro/internal/trace"
)

// TestParallelSequentialEquivalence is the tentpole acceptance check: the
// parallel evaluation (per-run collectors merged in suite order) must render
// byte-identical tables, figures, and summaries to the sequential
// shared-collector path.
func TestParallelSequentialEquivalence(t *testing.T) {
	suite := bench.All()
	if len(suite) > 3 {
		suite = suite[:3]
	}
	seq, err := RunSuite(context.Background(), suite, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunSuite(context.Background(), suite, len(suite))
	if err != nil {
		t.Fatal(err)
	}

	renders := []struct {
		name     string
		seq, par string
	}{
		{"Table1", seq.Table1().String(), par.Table1().String()},
		{"Table3", seq.Table3().String(), par.Table3().String()},
		{"Table5", seq.Table5().String(), par.Table5().String()},
		{"Table6", seq.Table6().String(), par.Table6().String()},
		{"Fig4", seq.Fig4().String(), par.Fig4().String()},
		{"Fig10", seq.Fig10().String(), par.Fig10().String()},
		{"Bottleneck", seq.Bottleneck().String(), par.Bottleneck().String()},
		{"FetchSummary", seq.FetchSummary(), par.FetchSummary()},
	}
	for _, r := range renders {
		if r.seq != r.par {
			t.Errorf("%s differs between sequential and parallel runs:\n--- sequential ---\n%s\n--- parallel ---\n%s", r.name, r.seq, r.par)
		}
	}

	if !reflect.DeepEqual(seq.Patterns.Rows(), par.Patterns.Rows()) {
		t.Error("pattern rows differ")
	}
	if !reflect.DeepEqual(seq.Partitions.Rows(), par.Partitions.Rows()) {
		t.Error("partition rows differ")
	}
	if seq.Width64.Saving32() != par.Width64.Saving32() || seq.Width64.Saving64() != par.Width64.Saving64() {
		t.Error("64-bit projection differs")
	}
	if len(seq.BM) != len(par.BM) {
		t.Fatalf("BM collectors: sequential %d, parallel %d", len(seq.BM), len(par.BM))
	}
	for name, sc := range seq.BM {
		pc, ok := par.BM[name]
		if !ok {
			t.Errorf("BM key %q missing from parallel results", name)
			continue
		}
		if sc.ALUSaving() != pc.ALUSaving() || sc.NarrowShare() != pc.NarrowShare() || sc.Ops() != pc.Ops() {
			t.Errorf("BM collector %q differs", name)
		}
	}
	if !reflect.DeepEqual(seq.Bench, par.Bench) {
		t.Error("per-benchmark results differ")
	}
}

// Regression for the once-poisoning bug: a failed first evaluation must not
// latch its error for every later caller.
func TestMemoRetriesAfterError(t *testing.T) {
	var m memo
	calls := 0
	boom := errors.New("transient failure")
	if _, err := m.get(func() (*Results, error) { calls++; return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("first call: err = %v, want %v", err, boom)
	}
	want := &Results{}
	got, err := m.get(func() (*Results, error) { calls++; return want, nil })
	if err != nil || got != want {
		t.Fatalf("retry after error: got %v, %v", got, err)
	}
	got, err = m.get(func() (*Results, error) { calls++; return nil, errors.New("must not run") })
	if err != nil || got != want {
		t.Fatalf("cached call: got %v, %v", got, err)
	}
	if calls != 2 {
		t.Fatalf("fn ran %d times, want 2 (one failure, one success, then cached)", calls)
	}
}

// Regression for suite-map poisoning: a failed benchmark run must not leave
// a partially-filled Brooks-Martonosi collector in the suite results.
func TestRunBenchReplayFailureLeavesNoBMCollector(t *testing.T) {
	cp, err := trace.CaptureRun(context.Background(), bench.All()[0])
	if err != nil {
		t.Fatal(err)
	}
	rc := icomp.MustNewRecoder(icomp.DefaultTopFuncts())
	cols := NewSuiteCollectors()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunBenchReplay(ctx, cp, rc, cols); err == nil {
		t.Fatal("expected an error from a cancelled context")
	}
	if len(cols.BM) != 0 {
		t.Fatalf("failed run registered a BM collector: %v", cols.BM)
	}
}

// A cancelled parallel run must fail with the context error, not hang or
// return partial results.
func TestRunSuiteCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	suite := bench.All()[:2]
	if _, err := RunSuite(ctx, suite, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func benchmarkSuite(b *testing.B, workers int) {
	suite := bench.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunSuite(context.Background(), suite, workers); err != nil {
			b.Fatal(err)
		}
	}
}

// The acceptance benchmark pair: on a 4+-core host the parallel evaluation
// at 4 workers should run the full suite at least 2x faster than the
// sequential path (go test -bench 'FullEvaluation' ./internal/experiments).
func BenchmarkFullEvaluationSequential(b *testing.B) { benchmarkSuite(b, 1) }
func BenchmarkFullEvaluationParallel4(b *testing.B)  { benchmarkSuite(b, 4) }
