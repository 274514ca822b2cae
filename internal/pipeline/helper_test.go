package pipeline

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/trace"
)

var testCtx = context.Background()

// memDefaultConfigSmall returns a 2 KB split-L1 hierarchy for tests.
func memDefaultConfigSmall() mem.HierarchyConfig {
	cfg := mem.DefaultHierarchyConfig()
	cfg.L1I.Size = 2 << 10
	cfg.L1D.Size = 2 << 10
	return cfg
}

// blockFunc adapts a function to trace.Consumer for tests.
type blockFunc func(*trace.Block)

func (f blockFunc) ConsumeBlock(b *trace.Block) { f(b) }

// recordExecs returns a capture of a synthetic instruction
// stream. Like any capture it derives each row's NextPC from the next
// row's PC (the last row keeps its own).
func recordExecs(execs []cpu.Exec) *trace.Capture {
	cp := trace.NewCapture(bench.Benchmark{})
	for _, e := range execs {
		cp.Record(e)
	}
	return cp
}

// annotate returns the Event a replay under testRecoder reconstructs for e
// alone: the oracle's input.
func annotate(e cpu.Exec) trace.Event {
	var ev trace.Event
	err := recordExecs([]cpu.Exec{e}).ReplayBlocks(testCtx, testRecoder, blockFunc(func(b *trace.Block) {
		b.EventAt(0, &ev)
	}))
	if err != nil {
		panic(err)
	}
	return ev
}

// subBlock returns rows [lo, hi) of b as a block of their own, with the
// miss events of those rows.
func subBlock(b *trace.Block, lo, hi int) trace.Block {
	var misses []trace.MissEvent
	for _, ev := range b.Misses {
		if r := int(ev.Row) - b.Start; r >= lo && r < hi {
			misses = append(misses, ev)
		}
	}
	if misses == nil {
		misses = []trace.MissEvent{}
	}
	sub := trace.Block{
		Misses:    misses,
		Start:     b.Start + lo,
		Slot:      b.Slot[lo:hi],
		PC:        b.PC[lo:hi],
		SrcA:      b.SrcA[lo:hi],
		SrcB:      b.SrcB[lo:hi],
		Result:    b.Result[lo:hi],
		Sig:       b.Sig[lo:hi],
		EndNextPC: b.EndNextPC,
		Statics:   b.Statics,
		IFB:       b.IFB,
	}
	if hi < b.Len() {
		sub.EndNextPC = b.PC[hi]
	}
	return sub
}

// kernelFeed replays execs through m's block kernel, calling snap just
// before row snapAt is scheduled (never, when snapAt is out of range).
func kernelFeed(t *testing.T, m *Model, execs []cpu.Exec, snapAt int, snap func()) {
	t.Helper()
	err := recordExecs(execs).ReplayBlocks(testCtx, testRecoder, blockFunc(func(b *trace.Block) {
		if at := snapAt - b.Start; at >= 0 && at < b.Len() {
			lo, hi := subBlock(b, 0, at), subBlock(b, at, b.Len())
			m.ConsumeBlock(&lo)
			snap()
			m.ConsumeBlock(&hi)
			return
		}
		m.ConsumeBlock(b)
	}))
	if err != nil {
		t.Fatal(err)
	}
}
