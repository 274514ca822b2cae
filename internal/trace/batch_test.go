package trace_test

import (
	"context"
	"testing"

	"repro/internal/icomp"
	"repro/internal/trace"
)

// TestBatchReplayBlockShape checks the block invariants a Consumer may
// rely on: rows partition the trace in order, Start is the global index,
// EndNextPC chains to the next block's first PC, and the statics/IFB tables
// are shared across blocks.
func TestBatchReplayBlockShape(t *testing.T) {
	ctx := context.Background()
	rc := icomp.MustNewRecoder(icomp.DefaultTopFuncts())
	cp, err := trace.CaptureRun(ctx, mustBench(t, captureTestBenches[0]))
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	next := 0
	var lastEnd uint32
	err = cp.ReplayBlocks(ctx, rc, blockCollector(func(blk *trace.Block) {
		if blk.Start != next {
			t.Fatalf("block starts at %d, want %d", blk.Start, next)
		}
		if blk.Len() == 0 {
			t.Fatal("empty block emitted")
		}
		if blk.Len() > trace.BlockRows {
			t.Fatalf("block has %d rows, cap is %d", blk.Len(), trace.BlockRows)
		}
		if next > 0 && blk.PC[0] != lastEnd {
			t.Fatalf("block PC[0]=%#x, previous EndNextPC=%#x", blk.PC[0], lastEnd)
		}
		if len(blk.Statics) != cp.Statics() || len(blk.IFB) != cp.Statics() {
			t.Fatalf("annotation tables sized %d/%d, want %d", len(blk.Statics), len(blk.IFB), cp.Statics())
		}
		next += blk.Len()
		lastEnd = blk.EndNextPC
	}))
	if err != nil {
		t.Fatalf("batch replay: %v", err)
	}
	if next != cp.Len() {
		t.Fatalf("blocks covered %d rows, capture has %d", next, cp.Len())
	}
}

// TestBatchReplayCancel mirrors TestCaptureReplayCancel for the batch path.
func TestBatchReplayCancel(t *testing.T) {
	cp, err := trace.CaptureRun(context.Background(), mustBench(t, captureTestBenches[0]))
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rc := icomp.MustNewRecoder(icomp.DefaultTopFuncts())
	if err := cp.ReplayBlocks(ctx, rc, nopConsumer); err == nil {
		t.Fatal("batch replay with cancelled context succeeded")
	}
}
