package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/icomp"
	"repro/internal/mem"
	"repro/internal/trace"
)

// replaySubset is a small slice of the suite, enough to exercise loads,
// stores, branches, mult/div, and every consumer, while keeping the
// double (interpreted + replayed) evaluation fast.
func replaySubset(t *testing.T) []bench.Benchmark {
	t.Helper()
	var subset []bench.Benchmark
	for _, name := range []string{"dijkstra", "g711dec", "rawdaudio"} {
		b, ok := bench.ByName(name)
		if !ok {
			t.Fatalf("benchmark %q not in suite", name)
		}
		subset = append(subset, b)
	}
	return subset
}

// interpreted is a trace.Replayer that streams its benchmark through
// trace.Interpret on every replay and keeps nothing between replays: the
// capture-free reference the replay-backed suite is held to.
type interpreted struct{ b bench.Benchmark }

func (s interpreted) Bench() bench.Benchmark { return s.b }
func (s interpreted) SizeBytes() int         { return 0 }

func (s interpreted) NewMemory() (*mem.Memory, error) {
	c, err := s.b.NewCPU()
	if err != nil {
		return nil, err
	}
	return c.Mem, nil
}

func (s interpreted) ReplayBlocks(ctx context.Context, rc *icomp.Recoder, consumers ...trace.Consumer) error {
	return s.ReplayBlocksOn(ctx, nil, rc, consumers...)
}

func (s interpreted) ReplayBlocksOn(ctx context.Context, m *mem.Memory, rc *icomp.Recoder, consumers ...trace.Consumer) error {
	c, err := s.b.NewCPU()
	if err != nil {
		return err
	}
	if _, err := trace.Interpret(ctx, c, s.b.MaxInsts, m, rc, consumers...); err != nil {
		return err
	}
	if !c.Done || c.Regs[bench.ChecksumReg] != s.b.Checksum {
		return fmt.Errorf("%s: did not halt with its checksum", s.b.Name)
	}
	return nil
}

// TestRunSuiteReplayMatchesLive is the experiments-layer bit-identity
// guarantee: the capture-once/replay-many evaluation must encode to exactly
// the same JSON as a sequential evaluation that streams every benchmark
// through the interpreter (no captures, the recoder profiled by stepping
// the suite), for both the sequential and the parallel drivers.
func TestRunSuiteReplayMatchesLive(t *testing.T) {
	ctx := context.Background()
	subset := replaySubset(t)
	rc, functs, err := trace.SuiteRecoder(subset)
	if err != nil {
		t.Fatal(err)
	}
	cols := NewSuiteCollectors()
	live := &Results{
		Recoder: rc, Functs: functs,
		Patterns: cols.Patterns, Fetch: cols.Fetch, Partitions: cols.Partitions,
		Width64: cols.Width64, Frontend: cols.Frontend, BM: cols.BM,
	}
	for _, b := range subset {
		br, err := RunBenchReplay(ctx, interpreted{b}, rc, cols)
		if err != nil {
			t.Fatalf("%s interpreted: %v", b.Name, err)
		}
		live.Bench = append(live.Bench, br)
	}
	wantJSON, err := json.Marshal(live.Encode())
	if err != nil {
		t.Fatalf("marshal interpreted: %v", err)
	}
	for _, workers := range []int{1, 4} {
		replay, err := RunSuite(ctx, subset, workers)
		if err != nil {
			t.Fatalf("RunSuite(workers=%d): %v", workers, err)
		}
		gotJSON, err := json.Marshal(replay.Encode())
		if err != nil {
			t.Fatalf("marshal replay: %v", err)
		}
		if string(gotJSON) != string(wantJSON) {
			t.Errorf("workers=%d: replay-backed suite JSON differs from the interpreted run\n interpreted: %d bytes\n replay:      %d bytes",
				workers, len(wantJSON), len(gotJSON))
		}
	}
}

// TestCaptureSuiteCancel checks that suite capture honors cancellation.
func TestCaptureSuiteCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CaptureSuite(ctx, replaySubset(t), 2); err == nil {
		t.Error("CaptureSuite under cancelled context succeeded")
	}
}
