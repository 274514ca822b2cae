package trace_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/activity"
	"repro/internal/bench"
	"repro/internal/cpu"
	"repro/internal/icomp"
	"repro/internal/trace"
)

// captureTestBenches are small suite members that still cover loads,
// stores, branches, mult/div, and jal/jr shapes.
var captureTestBenches = []string{"dijkstra", "g711dec", "rawdaudio"}

func mustBench(t testing.TB, name string) bench.Benchmark {
	t.Helper()
	b, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("benchmark %q not in suite", name)
	}
	return b
}

func defaultRecoder(t *testing.T) *icomp.Recoder {
	t.Helper()
	return icomp.MustNewRecoder(icomp.DefaultTopFuncts())
}

// eventRecorder materializes every row it is handed as an Event.
type eventRecorder struct{ events []trace.Event }

func (r *eventRecorder) ConsumeBlock(b *trace.Block) {
	var ev trace.Event
	for i := range b.Slot {
		b.EventAt(i, &ev)
		r.events = append(r.events, ev)
	}
}

// blockCollector adapts a function to trace.Consumer.
type blockCollector func(*trace.Block)

func (f blockCollector) ConsumeBlock(b *trace.Block) { f(b) }

// fullReplay replays rep over a fresh memory image of its benchmark.
func fullReplay(ctx context.Context, rep trace.Replayer, rc *icomp.Recoder, consumers ...trace.Consumer) error {
	m, err := rep.NewMemory()
	if err != nil {
		return err
	}
	return rep.ReplayBlocksOn(ctx, m, rc, consumers...)
}

// nopConsumer discards every block.
var nopConsumer = blockCollector(func(*trace.Block) {})

// TestReplayBitIdentical demands exact Event equality — every cpu.Exec
// field and every significance quantity — between the streaming
// interpreter (trace.Interpret) and
// replays of a capture built by CaptureRun and of one recorded by hand
// through Capture.Record; and checks the Exec fields against the
// interpreter stepped directly.
func TestReplayBitIdentical(t *testing.T) {
	rc := defaultRecoder(t)
	for _, name := range captureTestBenches {
		b := mustBench(t, name)
		interpreted := &eventRecorder{}
		if err := interpretOn(context.Background(), b, nil, rc, interpreted); err != nil {
			t.Fatalf("%s: interpretation: %v", name, err)
		}
		c, err := b.NewCPU()
		if err != nil {
			t.Fatal(err)
		}
		byHand := trace.NewCapture(b)
		var e cpu.Exec
		for i := 0; !c.Done; i++ {
			if err := c.Step(&e); err != nil {
				t.Fatalf("%s: step: %v", name, err)
			}
			if i >= len(interpreted.events) || !reflect.DeepEqual(interpreted.events[i].Exec, e) {
				t.Fatalf("%s: interpreted row %d differs from the stepped interpreter's %+v", name, i, e)
			}
			byHand.Record(e)
		}
		byHand.Finalize()

		captured, err := trace.CaptureRun(context.Background(), b)
		if err != nil {
			t.Fatalf("%s: CaptureRun: %v", name, err)
		}
		if captured.Len() != len(interpreted.events) {
			t.Fatalf("%s: capture has %d events, interpretation %d", name, captured.Len(), len(interpreted.events))
		}

		for whose, cp := range map[string]*trace.Capture{"CaptureRun": captured, "Record": byHand} {
			replayed := &eventRecorder{}
			if err := cp.ReplayBlocks(context.Background(), rc, replayed); err != nil {
				t.Fatalf("%s: replay (%s): %v", name, whose, err)
			}
			if len(replayed.events) != len(interpreted.events) {
				t.Fatalf("%s: replay (%s) produced %d events, interpretation %d",
					name, whose, len(replayed.events), len(interpreted.events))
			}
			for i := range interpreted.events {
				if !reflect.DeepEqual(replayed.events[i], interpreted.events[i]) {
					t.Fatalf("%s: replay (%s) event %d differs:\n interpreted %+v\n replay      %+v",
						name, whose, i, interpreted.events[i], replayed.events[i])
				}
			}
		}
	}
}

// TestReplayActivityIdentical runs the activity collector (which reads
// program memory at cache-fill time) over the streaming interpreter and
// over a
// replayed capture, and demands identical counts at both granularities.
func TestReplayActivityIdentical(t *testing.T) {
	rc := defaultRecoder(t)
	for _, name := range captureTestBenches {
		b := mustBench(t, name)
		for _, gran := range []int{1, 2} {
			c, err := b.NewCPU()
			if err != nil {
				t.Fatalf("%s: NewCPU: %v", name, err)
			}
			interpCol := activity.NewCollector(gran, rc, c.Mem)
			if err := interpretOn(context.Background(), b, c.Mem, rc, interpCol); err != nil {
				t.Fatalf("%s: interpretation: %v", name, err)
			}

			cp, err := trace.CaptureRun(context.Background(), b)
			if err != nil {
				t.Fatalf("%s: CaptureRun: %v", name, err)
			}
			m, err := cp.NewMemory()
			if err != nil {
				t.Fatalf("%s: NewMemory: %v", name, err)
			}
			replayCol := activity.NewCollector(gran, rc, m)
			if err := cp.ReplayBlocksOn(context.Background(), m, rc, replayCol); err != nil {
				t.Fatalf("%s: replay: %v", name, err)
			}
			if got, want := replayCol.Counts(), interpCol.Counts(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s gran %d: replayed activity differs:\n interpreted %+v\n replay      %+v",
					name, gran, want, got)
			}
		}
	}
}

// TestCaptureSizeBound pins the capture format to the documented
// per-instruction budget.
func TestCaptureSizeBound(t *testing.T) {
	for _, name := range captureTestBenches {
		b := mustBench(t, name)
		cp, err := trace.CaptureRun(context.Background(), b)
		if err != nil {
			t.Fatalf("%s: CaptureRun: %v", name, err)
		}
		if cp.Len() == 0 {
			t.Fatalf("%s: empty capture", name)
		}
		perInst := float64(cp.SizeBytes()) / float64(cp.Len())
		if perInst > trace.MaxBytesPerInst {
			t.Errorf("%s: %.1f B/instruction exceeds budget %d (size %d, %d insts, %d statics)",
				name, perInst, trace.MaxBytesPerInst, cp.SizeBytes(), cp.Len(), cp.Statics())
		}
		t.Logf("%s: %d insts, %d statics, %.1f B/instruction", name, cp.Len(), cp.Statics(), perInst)
	}
}

// TestCaptureFunctCounts checks that the capture's dynamic funct tally
// matches the interpreter-based profile.
func TestCaptureFunctCounts(t *testing.T) {
	b := mustBench(t, captureTestBenches[0])
	want, err := trace.FunctProfile([]bench.Benchmark{b})
	if err != nil {
		t.Fatalf("FunctProfile: %v", err)
	}
	cp, err := trace.CaptureRun(context.Background(), b)
	if err != nil {
		t.Fatalf("CaptureRun: %v", err)
	}
	if got := cp.FunctCounts(); !reflect.DeepEqual(got, want) {
		t.Errorf("FunctCounts = %v, want %v", got, want)
	}
}

// TestReplaySecondRecoder replays one capture under a different recoding
// and checks the re-derived IFBytes against the recoder directly.
func TestReplaySecondRecoder(t *testing.T) {
	b := mustBench(t, captureTestBenches[0])
	cp, err := trace.CaptureRun(context.Background(), b)
	if err != nil {
		t.Fatalf("CaptureRun: %v", err)
	}
	rc2, _, err := trace.SuiteRecoder([]bench.Benchmark{b})
	if err != nil {
		t.Fatalf("SuiteRecoder: %v", err)
	}
	checked := 0
	var e trace.Event
	err = cp.ReplayBlocks(context.Background(), rc2, blockCollector(func(b *trace.Block) {
		for i := range b.Slot {
			b.EventAt(i, &e)
			if want := rc2.FetchBytes(e.Raw); e.IFBytes != want {
				t.Fatalf("event %d: IFBytes %d, want %d", checked, e.IFBytes, want)
			}
			checked++
		}
	}))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if checked != cp.Len() {
		t.Fatalf("replayed %d events, capture holds %d", checked, cp.Len())
	}
}

// TestCaptureReplayCancel exercises context cancellation on both the
// capture and replay loops.
func TestCaptureReplayCancel(t *testing.T) {
	b := mustBench(t, captureTestBenches[0])
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := trace.CaptureRun(ctx, b); err == nil {
		t.Error("CaptureRun under cancelled context succeeded")
	}
	cp, err := trace.CaptureRun(context.Background(), b)
	if err != nil {
		t.Fatalf("CaptureRun: %v", err)
	}
	if err := cp.ReplayBlocks(ctx, defaultRecoder(t)); err == nil {
		t.Error("replay under cancelled context succeeded")
	}
}
