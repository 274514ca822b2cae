package bmgating

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/cpu"
	"repro/internal/icomp"
	"repro/internal/isa"
	"repro/internal/trace"
)

func TestNarrowDetector(t *testing.T) {
	cases := []struct {
		v    uint32
		want bool
	}{
		{0, true},
		{0x7fff, true},
		{0x8000, false},     // positive needing 17 bits
		{0xffff8000, true},  // small negative
		{0xffff7fff, false}, // negative needing more
		{0x12345678, false},
		{0xffffffff, true}, // -1
	}
	for _, c := range cases {
		if got := Narrow(c.v); got != c.want {
			t.Errorf("Narrow(%#x) = %v, want %v", c.v, got, c.want)
		}
	}
}

// event is an addu with the given operand values.
func event(a, b uint32) cpu.Exec {
	raw := isa.EncodeR(isa.FnADDU, isa.RegT0, isa.RegT1, isa.RegT2, 0)
	return cpu.Exec{
		PC: 0x400000, Raw: raw, Inst: isa.Decode(raw),
		SrcA: a, SrcB: b, ReadsA: true, ReadsB: true,
		Dest: isa.RegT2, Result: a + b, HasDest: true, NextPC: 0x400000,
	}
}

// feed replays the instructions through c's block kernel.
func feed(t *testing.T, c *Collector, execs ...cpu.Exec) {
	t.Helper()
	cp := trace.NewCapture(bench.Benchmark{})
	for _, e := range execs {
		cp.Record(e)
	}
	if err := cp.ReplayBlocks(context.Background(), icomp.MustNewRecoder(icomp.DefaultTopFuncts()), c); err != nil {
		t.Fatal(err)
	}
}

func TestCollectorGating(t *testing.T) {
	c := NewCollector()
	feed(t, c,
		event(3, 4),                   // both narrow: gated
		event(3, 0x12345678),          // one wide: full width
		event(0xffff8000, 0xffffffff)) // both narrow negatives: gated
	if c.Ops() != 3 {
		t.Fatalf("ops: %d", c.Ops())
	}
	// 2 of 3 gated: bits = 16+32+16 = 64 of 96 -> 33.3% saving.
	if s := c.ALUSaving(); s < 33 || s > 34 {
		t.Fatalf("saving: %.1f%%", s)
	}
	if share := c.NarrowShare(); share < 0.66 || share > 0.67 {
		t.Fatalf("narrow share: %.2f", share)
	}
}

func TestCollectorMerge(t *testing.T) {
	events := []cpu.Exec{
		event(3, 4),
		event(3, 0x12345678),
		event(0xffff8000, 0xffffffff),
		event(0x10000, 2),
	}
	whole, a, b := NewCollector(), NewCollector(), NewCollector()
	feed(t, whole, events...)
	feed(t, a, events[:2]...)
	feed(t, b, events[2:]...)
	a.Merge(b)
	if *a != *whole {
		t.Fatalf("merged collector %+v, want %+v", *a, *whole)
	}
}

func TestCollectorEmpty(t *testing.T) {
	c := NewCollector()
	if c.ALUSaving() != 0 || c.NarrowShare() != 0 {
		t.Fatal("empty collector should report zeros")
	}
}
