package trace_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/trace"
)

// TestLiveBlockShape checks the live source's blocks: rows partition the
// trace in order in blocks of at most BlockRows, every block carries a
// non-nil miss stream, the statics and fetch-size tables cover every slot
// the block uses, and the window's columns are one reused buffer.
func TestLiveBlockShape(t *testing.T) {
	ctx := context.Background()
	b := mustBench(t, captureTestBenches[0])
	cp, err := trace.CaptureRun(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	var window *uint32
	err = trace.NewLive(b).ReplayBlocks(ctx, defaultRecoder(t), blockCollector(func(blk *trace.Block) {
		if blk.Start != next || blk.Len() == 0 || blk.Len() > trace.BlockRows {
			t.Fatalf("block [%d, +%d), want start %d and 1..%d rows", blk.Start, blk.Len(), next, trace.BlockRows)
		}
		if blk.Misses == nil {
			t.Fatal("live block without a miss stream")
		}
		if len(blk.IFB) != len(blk.Statics) {
			t.Fatalf("fetch-size table has %d slots, statics %d", len(blk.IFB), len(blk.Statics))
		}
		for _, sw := range blk.Slot {
			if int(sw&trace.SlotMask) >= len(blk.Statics) {
				t.Fatalf("row references slot %d of %d", sw&trace.SlotMask, len(blk.Statics))
			}
		}
		if window == nil {
			window = &blk.Slot[:1][0]
		} else if &blk.Slot[:1][0] != window {
			t.Fatal("live window reallocated between blocks")
		}
		next += blk.Len()
	}))
	if err != nil {
		t.Fatal(err)
	}
	if next != cp.Len() {
		t.Fatalf("live source emitted %d rows, capture has %d", next, cp.Len())
	}
}

// TestLiveRetainedBytesBounded shows the live source holds O(BlockRows)
// rows, not O(trace): replaying the longest benchmark of the suite
// allocates about as much as replaying the shortest, and a small fraction
// of what capturing it takes.
func TestLiveRetainedBytesBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ctx := context.Background()
	rc := defaultRecoder(t)
	var short, long bench.Benchmark
	var shortN, longN int
	for _, b := range bench.All() {
		c, err := b.RunVerified()
		if err != nil {
			t.Fatal(err)
		}
		if n := int(c.Retired); shortN == 0 || n < shortN {
			short, shortN = b, n
		}
		if n := int(c.Retired); n > longN {
			long, longN = b, n
		}
	}
	allocated := func(b bench.Benchmark) uint64 {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		if err := trace.NewLive(b).ReplayBlocks(ctx, rc, nopConsumer); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	shortA, longA := allocated(short), allocated(long)
	t.Logf("%s: %d rows, %d B allocated; %s: %d rows, %d B allocated",
		short.Name, shortN, shortA, long.Name, longN, longA)
	if longN < 10*shortN {
		t.Fatalf("suite too uniform (%d vs %d rows) to show the bound", longN, shortN)
	}
	if longA > 2*shortA+(1<<20) {
		t.Errorf("live replay of %d rows allocated %d B against %d B for %d rows: grows with trace length",
			longN, longA, shortA, shortN)
	}
	if columns := uint64(longN) * 24; longA*20 > columns {
		t.Errorf("live replay allocated %d B, over 1/20 of the %d B a capture's columns take", longA, columns)
	}
}
