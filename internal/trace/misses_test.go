package trace_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/activity"
	"repro/internal/bench"
	"repro/internal/icomp"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// missConsumers is every consumer the miss stream feeds in a suite
// evaluation: each registered timing model, the three predicted variants,
// and the byte, halfword and 2-bit-scheme activity collectors.
type missConsumers struct {
	models []*pipeline.Model
	cols   []*activity.Collector
}

func newMissConsumers(rc *icomp.Recoder, m *mem.Memory) *missConsumers {
	s := &missConsumers{models: pipeline.NewAll()}
	for _, n := range []string{pipeline.NameBaseline32, pipeline.NameByteSerial, pipeline.NameParallelSkewedBypass} {
		s.models = append(s.models, pipeline.NewPredicted(n))
	}
	s.cols = []*activity.Collector{
		activity.NewCollector(1, rc, m),
		activity.NewCollector(2, rc, m),
		activity.NewCollectorScheme(1, activity.Scheme2, rc, m),
	}
	return s
}

func (s *missConsumers) all() []trace.Consumer {
	var out []trace.Consumer
	for _, m := range s.models {
		out = append(out, m)
	}
	for _, c := range s.cols {
		out = append(out, c)
	}
	return out
}

// missResults is everything the consumers report, in a DeepEqual-able form.
type missResults struct {
	Models     []pipeline.Result
	PredAcc    []float64
	FetchUnits []*pipeline.FetchUnitStats
	Counts     []activity.Counts
}

func (s *missConsumers) results() missResults {
	var r missResults
	for _, m := range s.models {
		r.Models = append(r.Models, m.Result())
		r.PredAcc = append(r.PredAcc, m.PredictorAccuracy())
		r.FetchUnits = append(r.FetchUnits, m.FetchUnit())
	}
	for _, c := range s.cols {
		r.Counts = append(r.Counts, c.Counts())
	}
	return r
}

// interpretMissResults runs the reference: the streaming interpreter, which
// simulates the hierarchy afresh for every window it emits and publishes
// nothing.
func interpretMissResults(t *testing.T, cp *trace.Capture, rc *icomp.Recoder) missResults {
	t.Helper()
	b := cp.Bench()
	m, err := cp.NewMemory()
	if err != nil {
		t.Fatal(err)
	}
	s := newMissConsumers(rc, m)
	if err := interpretOn(context.Background(), b, m, rc, s.all()...); err != nil {
		t.Fatalf("%s interpretation: %v", b.Name, err)
	}
	return s.results()
}

// oracleMissStream recomputes a capture's miss stream without the engine:
// one mem.Hierarchy driven row by row from the materialized events.
func oracleMissStream(t *testing.T, cp *trace.Capture, cfg mem.HierarchyConfig) []trace.MissEvent {
	t.Helper()
	h := mem.NewHierarchy(cfg)
	var out []trace.MissEvent
	var e trace.Event
	err := cp.ReplayBlocks(context.Background(), icomp.MustNewRecoder(icomp.DefaultTopFuncts()), blockCollector(func(b *trace.Block) {
		for i := range b.Slot {
			b.EventAt(i, &e)
			ev := trace.MissEvent{Row: uint32(b.Start + i)}
			fills := h.InstFills
			ev.IC = uint16(h.Fetch(e.PC))
			if h.InstFills != fills {
				ev.Flags |= trace.MissIFill
			}
			if e.MemWidth > 0 {
				fills, wbs := h.DataFills, h.L1D.Writeback
				ev.DC = uint16(h.Data(e.Addr, e.Inst.IsStore()))
				if h.DataFills != fills {
					ev.Flags |= trace.MissDFill
				}
				if h.L1D.Writeback != wbs {
					ev.Flags |= trace.MissDWriteback
				}
			}
			if ev.IC != 0 || ev.DC != 0 || ev.Flags != 0 {
				out = append(out, ev)
			}
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// batchMissResults runs the batch engine of rep over a fresh memory image.
func batchMissResults(ctx context.Context, rep trace.Replayer, rc *icomp.Recoder, extra ...trace.Consumer) (missResults, error) {
	m, err := rep.NewMemory()
	if err != nil {
		return missResults{}, err
	}
	s := newMissConsumers(rc, m)
	if err := rep.ReplayBlocksOn(ctx, m, rc, append(extra, s.all()...)...); err != nil {
		return missResults{}, err
	}
	return s.results(), nil
}

// eventBytes is the resident size of one MissEvent, as SizeBytes charges it.
const eventBytes = int(unsafe.Sizeof(trace.MissEvent{}))

// missStreamBenches is the whole suite, cut to the small trace-test
// benchmarks under the race detector.
func missStreamBenches(t *testing.T) []string {
	if raceEnabled {
		return captureTestBenches
	}
	var names []string
	for _, b := range bench.All() {
		names = append(names, b.Name)
	}
	return names
}

// TestMissStreamEquivalence pins the memoized hierarchy outcome: for every
// benchmark the published stream must equal one recomputed by a private
// mem.Hierarchy, and every consumer must report exactly what it reports
// over the streaming interpreter (which builds each window's events afresh) — with
// the stream built inline by the replay (cold), read back from the capture
// (warm), and built inline by the mapped SIGCAP02 tier, whose blocks are
// decoded frames (so the stream is cut at every frame seam). The kernels
// themselves are pinned to event-at-a-time oracles with private
// hierarchies in internal/pipeline and internal/activity.
func TestMissStreamEquivalence(t *testing.T) {
	ctx := context.Background()
	rc := icomp.MustNewRecoder(icomp.DefaultTopFuncts())
	var rows, events int
	for _, name := range missStreamBenches(t) {
		cp, mc := mappedForTest(t, name)
		want := interpretMissResults(t, cp, rc)

		if cp.MissStream() != nil {
			t.Fatalf("%s: fresh capture already has a miss stream", name)
		}
		// A cancelled replay builds the fetch-size memo but publishes no
		// stream, so the growth below is the stream alone.
		cancelled, cancel := context.WithCancel(ctx)
		cancel()
		if err := cp.ReplayBlocks(cancelled, rc); err == nil {
			t.Fatalf("%s: cancelled replay succeeded", name)
		}
		before := cp.SizeBytes()
		for _, pass := range []string{"cold", "warm"} {
			got, err := batchMissResults(ctx, cp, rc)
			if err != nil {
				t.Fatalf("%s %s batch replay: %v", name, pass, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: %s-stream results diverge from interpretation\ninterpreted: %+v\nbatch:       %+v", name, pass, want, got)
			}
		}
		stream := cp.MissStream()
		if stream == nil {
			t.Fatalf("%s: no miss stream after a completed batch replay", name)
		}
		if grown := cp.SizeBytes() - before; grown != eventBytes*len(stream) {
			t.Errorf("%s: SizeBytes grew by %d, want %d for %d events", name, grown, eventBytes*len(stream), len(stream))
		}
		if oracle := oracleMissStream(t, cp, mem.DefaultHierarchyConfig()); !reflect.DeepEqual(stream, oracle) {
			t.Fatalf("%s: published miss stream differs from a private hierarchy's", name)
		}
		for i := 1; i < len(stream); i++ {
			if stream[i].Row <= stream[i-1].Row {
				t.Fatalf("%s: miss stream not sorted at event %d", name, i)
			}
		}

		got, err := batchMissResults(ctx, mc, rc)
		if err != nil {
			t.Fatalf("%s mapped replay: %v", name, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: mapped-tier results diverge from interpretation\ninterpreted: %+v\nmapped:      %+v", name, want, got)
		}
		if !reflect.DeepEqual(stream, mc.MissStream()) {
			t.Fatalf("%s: mapped tier built a different miss stream", name)
		}
		rows += cp.Len()
		events += len(stream)
	}
	t.Logf("%d rows, %d miss events (%.3f%%, %d B)", rows, events, 100*float64(events)/float64(rows), eventBytes*events)
	// The stream must stay sparse: it is charged to every cached capture.
	// Short traces are dominated by cold misses, so only the whole suite is
	// held to a tenth of a percent.
	if !raceEnabled && events*1000 > rows {
		t.Errorf("%d miss events over %d rows: the stream is no longer sparse", events, rows)
	}
}

// TestMissStreamCancelledReplay cancels the first replay of each tier
// partway: no partial stream may be published, and the next replay must
// build it again with results identical to the interpreted reference.
func TestMissStreamCancelledReplay(t *testing.T) {
	rc := icomp.MustNewRecoder(icomp.DefaultTopFuncts())
	cp, mc := mappedForTest(t, captureTestBenches[0])
	if cp.Len() <= trace.BlockRows {
		t.Fatalf("trace too short (%d rows) to cancel between blocks", cp.Len())
	}
	want := interpretMissResults(t, cp, rc)
	for _, tier := range []struct {
		name string
		rep  interface {
			trace.Replayer
			MissStream() []trace.MissEvent
		}
	}{{"resident", cp}, {"mapped", mc}} {
		ctx, cancel := context.WithCancel(context.Background())
		stop := blockCollector(func(*trace.Block) { cancel() })
		_, err := batchMissResults(ctx, tier.rep, rc, stop)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled replay returned %v, want context.Canceled", tier.name, err)
		}
		if tier.rep.MissStream() != nil {
			t.Fatalf("%s: a cancelled replay published a miss stream", tier.name)
		}
		got, err := batchMissResults(context.Background(), tier.rep, rc)
		if err != nil {
			t.Fatalf("%s: replay after cancellation: %v", tier.name, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: rebuilt-stream results diverge from interpretation", tier.name)
		}
		if tier.rep.MissStream() == nil {
			t.Fatalf("%s: completed replay published no miss stream", tier.name)
		}
	}
	if !reflect.DeepEqual(cp.MissStream(), mc.MissStream()) {
		t.Fatal("tiers rebuilt different miss streams")
	}
}

// TestMissStreamConcurrentFirstReplays starts two first replays of one
// capture together, the way two clients priming a fresh shard do, and holds
// both inside their first block until the other has started: both must
// build the stream, neither may see the other's half-built copy, and both
// must match the interpreted reference. Run with -race.
func TestMissStreamConcurrentFirstReplays(t *testing.T) {
	rc := icomp.MustNewRecoder(icomp.DefaultTopFuncts())
	cp, mc := mappedForTest(t, captureTestBenches[1])
	want := interpretMissResults(t, cp, rc)
	for _, rep := range []trace.Replayer{cp, mc} {
		const replays = 2
		var arrived sync.WaitGroup
		arrived.Add(replays)
		var wg sync.WaitGroup
		got := make([]missResults, replays)
		errs := make([]error, replays)
		for i := 0; i < replays; i++ {
			var once sync.Once
			barrier := blockCollector(func(*trace.Block) {
				once.Do(func() { arrived.Done(); arrived.Wait() })
			})
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i], errs[i] = batchMissResults(context.Background(), rep, rc, barrier)
			}(i)
		}
		wg.Wait()
		for i := range got {
			if errs[i] != nil {
				t.Fatalf("%T replay %d: %v", rep, i, errs[i])
			}
			if !reflect.DeepEqual(want, got[i]) {
				t.Fatalf("%T replay %d diverges from interpretation", rep, i)
			}
		}
	}
	if cp.MissStream() == nil || !reflect.DeepEqual(cp.MissStream(), mc.MissStream()) {
		t.Fatal("concurrent first replays published missing or differing streams")
	}
}

// TestMissBuilderWideStalls runs a geometry whose worst-case stall (TLB +
// L2 + 300-cycle memory) overflows a byte through the exported builder, as
// a SetHierarchy model does, and checks every event against a private
// hierarchy: no stall may be truncated.
func TestMissBuilderWideStalls(t *testing.T) {
	cp, err := trace.CaptureRun(context.Background(), mustBench(t, captureTestBenches[0]))
	if err != nil {
		t.Fatal(err)
	}
	cfg := mem.DefaultHierarchyConfig()
	cfg.MemCycles = 300
	mb := trace.NewMissBuilder(cfg)
	var got []trace.MissEvent
	err = cp.ReplayBlocks(context.Background(), defaultRecoder(t), blockCollector(func(b *trace.Block) {
		got = append(got, mb.Block(b)...)
	}))
	if err != nil {
		t.Fatal(err)
	}
	want := oracleMissStream(t, cp, cfg)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("builder events differ from a private hierarchy's")
	}
	wide := false
	for _, ev := range got {
		wide = wide || ev.IC > 255 || ev.DC > 255
	}
	if !wide {
		t.Fatal("no stall above 255 cycles: the geometry does not exercise the field width")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("a worst-case stall beyond 65535 cycles must be rejected")
		}
	}()
	cfg.MemCycles = 1 << 16
	trace.NewMissBuilder(cfg)
}
