package trace_test

import (
	"context"
	"errors"
	"os"
	"sync"
	"testing"

	"repro/internal/icomp"
	"repro/internal/trace"
)

// mappedForTest captures b, persists it as SIGCAP02, and opens the mapped
// handle, returning both tiers of the same trace.
func mappedForTest(t *testing.T, name string) (*trace.Capture, *trace.MappedCapture) {
	t.Helper()
	cp, err := trace.CaptureRun(context.Background(), mustBench(t, name))
	if err != nil {
		t.Fatalf("capture %s: %v", name, err)
	}
	dir := t.TempDir()
	path, err := trace.WriteCaptureFile(dir, cp)
	if err != nil {
		t.Fatalf("WriteCaptureFile: %v", err)
	}
	mc, err := trace.OpenMappedCapture(path)
	if err != nil {
		t.Fatalf("OpenMappedCapture: %v", err)
	}
	t.Cleanup(func() { mc.Close() })
	return cp, mc
}

// TestStreamReplayIdentical is the equivalence gate of the two sources and
// the streaming interpreter: replay off the mapped file and Interpret must
// produce exactly the event stream the fully resident capture produces,
// including the memory-dependent fields whose store ordering crosses frame
// boundaries (the suite's traces span many 4096-row frames, so store spans
// straddling a frame edge are exercised by construction).
func TestStreamReplayIdentical(t *testing.T) {
	ctx := context.Background()
	rc := icomp.MustNewRecoder(icomp.DefaultTopFuncts())
	for _, name := range captureTestBenches {
		cp, mc := mappedForTest(t, name)
		if mc.Len() != cp.Len() || mc.Statics() != cp.Statics() {
			t.Fatalf("%s: mapped %d rows/%d statics, capture %d/%d",
				name, mc.Len(), mc.Statics(), cp.Len(), cp.Statics())
		}
		if want := (cp.Len() + trace.FrameRows - 1) / trace.FrameRows; mc.Frames() != want {
			t.Fatalf("%s: %d frames, want %d", name, mc.Frames(), want)
		}
		var resident, streamed eventRecorder
		if err := fullReplay(ctx, cp, rc, &resident); err != nil {
			t.Fatalf("%s resident batch replay: %v", name, err)
		}
		if err := fullReplay(ctx, mc, rc, &streamed); err != nil {
			t.Fatalf("%s streamed batch replay: %v", name, err)
		}
		if len(resident.events) != len(streamed.events) {
			t.Fatalf("%s: resident %d events, streamed %d", name, len(resident.events), len(streamed.events))
		}
		for i := range resident.events {
			if resident.events[i] != streamed.events[i] {
				t.Fatalf("%s: event %d diverges (frame %d, row %d)\nresident: %+v\nstreamed: %+v",
					name, i, i/trace.FrameRows, i%trace.FrameRows,
					resident.events[i], streamed.events[i])
			}
		}
		var interpreted eventRecorder
		image, err := cp.NewMemory()
		if err != nil {
			t.Fatal(err)
		}
		if err := interpretOn(ctx, cp.Bench(), image, rc, &interpreted); err != nil {
			t.Fatalf("%s interpretation: %v", name, err)
		}
		if len(interpreted.events) != len(resident.events) {
			t.Fatalf("%s: interpreted %d events, resident %d", name, len(interpreted.events), len(resident.events))
		}
		for i := range resident.events {
			if resident.events[i] != interpreted.events[i] {
				t.Fatalf("%s: interpreted event %d diverges", name, i)
			}
		}
	}
}

// TestStreamBlockShape mirrors TestBatchReplayBlockShape for the streaming
// tier: one decoded frame is exactly one block (except a short final one),
// Start is global, and EndNextPC chains across the frame seams the footer
// index stitched with firstPC.
func TestStreamBlockShape(t *testing.T) {
	ctx := context.Background()
	rc := icomp.MustNewRecoder(icomp.DefaultTopFuncts())
	cp, mc := mappedForTest(t, captureTestBenches[0])
	next := 0
	var lastEnd uint32
	err := mc.ReplayBlocks(ctx, rc, blockCollector(func(blk *trace.Block) {
		if blk.Start != next {
			t.Fatalf("block starts at %d, want %d", blk.Start, next)
		}
		if blk.Len() == 0 || blk.Len() > trace.BlockRows {
			t.Fatalf("block has %d rows", blk.Len())
		}
		if next > 0 && blk.PC[0] != lastEnd {
			t.Fatalf("block PC[0]=%#x, previous EndNextPC=%#x", blk.PC[0], lastEnd)
		}
		next += blk.Len()
		lastEnd = blk.EndNextPC
	}))
	if err != nil {
		t.Fatalf("streamed block replay: %v", err)
	}
	if next != cp.Len() {
		t.Fatalf("blocks covered %d rows, capture has %d", next, cp.Len())
	}
}

// TestStreamMaterialize checks the promotion path: the capture decoded
// whole (ReadCaptureFile) off the same SIGCAP02 file the mapped handle
// streams replays identically to the original recording.
func TestStreamMaterialize(t *testing.T) {
	ctx := context.Background()
	rc := icomp.MustNewRecoder(icomp.DefaultTopFuncts())
	cp, err := trace.CaptureRun(ctx, mustBench(t, captureTestBenches[1]))
	if err != nil {
		t.Fatalf("CaptureRun: %v", err)
	}
	path, err := trace.WriteCaptureFile(t.TempDir(), cp)
	if err != nil {
		t.Fatalf("WriteCaptureFile: %v", err)
	}
	dense, err := trace.ReadCaptureFile(path)
	if err != nil {
		t.Fatalf("ReadCaptureFile: %v", err)
	}
	var want, got eventRecorder
	if err := fullReplay(ctx, cp, rc, &want); err != nil {
		t.Fatalf("resident replay: %v", err)
	}
	if err := fullReplay(ctx, dense, rc, &got); err != nil {
		t.Fatalf("materialized replay: %v", err)
	}
	if len(want.events) != len(got.events) {
		t.Fatalf("materialized %d events, want %d", len(got.events), len(want.events))
	}
	for i := range want.events {
		if want.events[i] != got.events[i] {
			t.Fatalf("materialized event %d diverges", i)
		}
	}
}

// TestStreamReplayCancelMidFrame cancels the context from inside a
// consumer partway through the trace; the streaming replayer must stop at
// the next frame seam with the context error instead of replaying to the
// end.
func TestStreamReplayCancelMidFrame(t *testing.T) {
	_, mc := mappedForTest(t, captureTestBenches[0])
	if mc.Len() < trace.FrameRows+2 {
		t.Skipf("trace too short (%d rows) to cancel mid-frame", mc.Len())
	}
	rc := icomp.MustNewRecoder(icomp.DefaultTopFuncts())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	stop := trace.FrameRows/2 + 1 // mid-first-frame
	err := mc.ReplayBlocks(ctx, rc, blockCollector(func(b *trace.Block) {
		seen += b.Len()
		if seen >= stop {
			cancel()
		}
	}))
	if err == nil {
		t.Fatal("cancelled streaming replay succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if seen >= mc.Len() {
		t.Fatalf("replay consumed all %d rows despite cancellation", mc.Len())
	}
}

// TestStreamConcurrentReplays replays one shared mapped capture from many
// goroutines under distinct recoders — the N-model-sweep shape — and
// checks every replay observes the identical stream (run with -race to
// catch shared decode state).
func TestStreamConcurrentReplays(t *testing.T) {
	ctx := context.Background()
	cp, mc := mappedForTest(t, captureTestBenches[2])
	narrow := icomp.MustNewRecoder(icomp.DefaultTopFuncts()[:4])
	rcs := []*icomp.Recoder{
		icomp.MustNewRecoder(icomp.DefaultTopFuncts()),
		icomp.MustNewRecoder(icomp.DefaultTopFuncts()),
		narrow,
		narrow,
	}
	want := make([]*eventRecorder, len(rcs))
	for i, rc := range rcs {
		want[i] = &eventRecorder{}
		if err := fullReplay(ctx, cp, rc, want[i]); err != nil {
			t.Fatalf("resident replay %d: %v", i, err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(rcs))
	got := make([]*eventRecorder, len(rcs))
	for i, rc := range rcs {
		wg.Add(1)
		got[i] = &eventRecorder{}
		go func(i int, rc *icomp.Recoder) {
			defer wg.Done()
			errs[i] = fullReplay(ctx, mc, rc, got[i])
		}(i, rc)
	}
	wg.Wait()
	for i := range rcs {
		if errs[i] != nil {
			t.Fatalf("concurrent replay %d: %v", i, errs[i])
		}
		if len(got[i].events) != len(want[i].events) {
			t.Fatalf("replay %d: %d events, want %d", i, len(got[i].events), len(want[i].events))
		}
		for j := range want[i].events {
			if got[i].events[j] != want[i].events[j] {
				t.Fatalf("replay %d event %d diverges", i, j)
			}
		}
	}
}

// TestStreamCloseDuringReplay is the eviction race: Close (what cache
// eviction calls) while replays are in flight must neither unmap pages
// under a frame decode nor fail the replays — they hold references, so the
// unmap defers until the last one finishes. New replays after Close fail
// with ErrMappedClosed, which is transient (the file is still on disk).
func TestStreamCloseDuringReplay(t *testing.T) {
	_, mc := mappedForTest(t, captureTestBenches[0])
	rc := icomp.MustNewRecoder(icomp.DefaultTopFuncts())
	ctx := context.Background()

	const replays = 4
	var started sync.WaitGroup
	started.Add(replays)
	var wg sync.WaitGroup
	errs := make([]error, replays)
	for i := 0; i < replays; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var once sync.Once
			errs[i] = mc.ReplayBlocks(ctx, rc, blockCollector(func(*trace.Block) {
				once.Do(started.Done)
			}))
		}(i)
	}
	started.Wait() // every replay has fanned out at least one event
	if err := mc.Close(); err != nil {
		t.Fatalf("Close during replay: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("in-flight replay %d failed after Close: %v", i, err)
		}
	}
	err := mc.ReplayBlocks(ctx, rc, nopConsumer)
	if !errors.Is(err, trace.ErrMappedClosed) {
		t.Fatalf("replay after Close: %v, want ErrMappedClosed", err)
	}
	if mc.Close() != nil {
		t.Fatal("second Close errored")
	}
}

// TestStreamSizeBytesLazy pins the residency claim behind the mapped tier:
// the handle's accounted footprint must stay far below the decoded column
// bytes (the ISSUE gate: under a quarter), since only index + statics +
// one frame's buffers are resident.
func TestStreamSizeBytesLazy(t *testing.T) {
	for _, name := range captureTestBenches {
		cp, mc := mappedForTest(t, name)
		decoded := cp.Len() * 24 // six u32 columns
		if mc.Len() < 4*trace.FrameRows {
			continue // tiny traces have nothing to amortize
		}
		if mc.SizeBytes() >= decoded/4 {
			t.Errorf("%s: mapped SizeBytes %d, want < 1/4 of decoded columns %d",
				name, mc.SizeBytes(), decoded)
		}
	}
}

// TestStreamCorruptFrame flips one payload byte of a persisted SIGCAP02
// file: open (which only checks header and footer) must succeed, and the
// replay touching the damaged frame must fail its CRC as a CorruptError
// rather than fan out garbage.
func TestStreamCorruptFrame(t *testing.T) {
	cp, err := trace.CaptureRun(context.Background(), mustBench(t, captureTestBenches[0]))
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	dir := t.TempDir()
	path, err := trace.WriteCaptureFile(dir, cp)
	if err != nil {
		t.Fatalf("WriteCaptureFile: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10 // mid-file: inside some frame payload
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	mc, err := trace.OpenMappedCapture(path)
	if err != nil {
		t.Fatalf("open of frame-corrupt file failed at index time: %v", err)
	}
	defer mc.Close()
	rc := icomp.MustNewRecoder(icomp.DefaultTopFuncts())
	err = mc.ReplayBlocks(context.Background(), rc, nopConsumer)
	var ce *trace.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("replay of corrupt frame: %v, want CorruptError", err)
	}
}
