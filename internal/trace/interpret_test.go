package trace_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/icomp"
	"repro/internal/mem"
	"repro/internal/trace"
)

// interpretOn streams b through trace.Interpret over m (b's initial image,
// or nil) and checks that it halted within b.MaxInsts with b's checksum:
// the streaming path of programs that are not captured, set beside the
// capture tiers by the equivalence tests.
func interpretOn(ctx context.Context, b bench.Benchmark, m *mem.Memory, rc *icomp.Recoder, consumers ...trace.Consumer) error {
	c, err := b.NewCPU()
	if err != nil {
		return err
	}
	if _, err := trace.Interpret(ctx, c, b.MaxInsts, m, rc, consumers...); err != nil {
		return err
	}
	if !c.Done {
		return fmt.Errorf("%s did not halt within %d instructions", b.Name, b.MaxInsts)
	}
	if got := c.Regs[bench.ChecksumReg]; got != b.Checksum {
		return fmt.Errorf("%s checksum %#08x, want %#08x", b.Name, got, b.Checksum)
	}
	return nil
}

// TestInterpretBlockShape checks the streaming interpreter's blocks: rows
// partition the trace in order in blocks of at most BlockRows, every block
// carries a non-nil miss stream, the statics and fetch-size tables cover
// every slot the block uses, and the window's columns are one reused
// buffer.
func TestInterpretBlockShape(t *testing.T) {
	ctx := context.Background()
	b := mustBench(t, captureTestBenches[0])
	cp, err := trace.CaptureRun(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	var window *uint32
	err = interpretOn(ctx, b, nil, defaultRecoder(t), blockCollector(func(blk *trace.Block) {
		if blk.Start != next || blk.Len() == 0 || blk.Len() > trace.BlockRows {
			t.Fatalf("block [%d, +%d), want start %d and 1..%d rows", blk.Start, blk.Len(), next, trace.BlockRows)
		}
		if blk.Misses == nil {
			t.Fatal("interpreted block without a miss stream")
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
			t.Fatal("interpreter window reallocated between blocks")
		}
		next += blk.Len()
	}))
	if err != nil {
		t.Fatal(err)
	}
	if next != cp.Len() {
		t.Fatalf("Interpret emitted %d rows, capture has %d", next, cp.Len())
	}
}

// TestInterpretRetainedBytesBounded shows the streaming interpreter holds
// O(BlockRows) rows, not O(trace): interpreting the longest benchmark of
// the suite allocates about as much as interpreting the shortest, and a
// small fraction of what capturing it takes. This is what keeps a runaway
// program under a large instruction cap from exhausting memory.
func TestInterpretRetainedBytesBounded(t *testing.T) {
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
		if err := interpretOn(ctx, b, nil, rc, nopConsumer); err != nil {
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
		t.Errorf("interpreting %d rows allocated %d B against %d B for %d rows: grows with trace length",
			longN, longA, shortA, shortN)
	}
	if columns := uint64(longN) * 24; longA*20 > columns {
		t.Errorf("interpreting allocated %d B, over 1/20 of the %d B a capture's columns take", longA, columns)
	}
}
