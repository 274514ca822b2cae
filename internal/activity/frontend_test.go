package activity

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/trace"
)

// loadEvent is a lw with a chosen destination register.
func loadEvent(pc uint32, dest isa.Reg) trace.Event {
	raw := isa.EncodeI(isa.OpLW, isa.RegT0, dest, 0)
	return annotate(cpu.Exec{
		PC: pc, Raw: raw, Inst: isa.Decode(raw),
		SrcA: 0x10000000, ReadsA: true,
		Addr: 0x10000000, MemWidth: 4,
		Dest: dest, Result: 7, HasDest: true, NextPC: pc + 4,
	})
}

// branchEvent is a not-taken beq.
func branchEvent(pc uint32) trace.Event {
	raw := isa.EncodeI(isa.OpBEQ, isa.RegT0, isa.RegT1, 4)
	return annotate(cpu.Exec{
		PC: pc, Raw: raw, Inst: isa.Decode(raw),
		SrcA: 1, SrcB: 2, ReadsA: true, ReadsB: true, NextPC: pc + 4,
	})
}

func sized(e trace.Event, bytes int) trace.Event {
	e.IFBytes = bytes
	return e
}

// TestFrontendStatsPairing checks the greedy pairing rules on hand-built
// streams: independent compressed ALU ops pair, RAW chains do not, memory
// pairs do not, and control transfers break runs but may close a pair.
func TestFrontendStatsPairing(t *testing.T) {
	indep := func(pc uint32, dest isa.Reg) trace.Event {
		e := aluEvent(pc, 1, 2)
		e.Dest = dest
		return sized(e, 3)
	}

	f := NewFrontendStats()
	for i := uint32(0); i < 6; i++ {
		f.Consume(indep(0x400000+4*i, []isa.Reg{isa.RegT2, isa.RegT3}[i%2]))
	}
	if f.Pairs != 3 || f.Compressed != 6 {
		t.Fatalf("independent compressed stream: %d pairs / %d compressed, want 3/6", f.Pairs, f.Compressed)
	}

	// RAW chain: every op reads the previous destination.
	f = NewFrontendStats()
	for i := uint32(0); i < 6; i++ {
		e := aluEvent(0x400000+4*i, 1, 2)
		e.Inst.Rs, e.Inst.Rt = isa.RegT2, isa.RegT2
		f.Consume(sized(e, 3))
	}
	if f.Pairs != 0 {
		t.Fatalf("RAW chain paired %d times", f.Pairs)
	}

	// Two adjacent memory ops must not pair; mem+alu may.
	f = NewFrontendStats()
	f.Consume(sized(loadEvent(0x400000, isa.RegT2), 3))
	f.Consume(sized(loadEvent(0x400004, isa.RegT3), 3))
	if f.Pairs != 0 {
		t.Fatalf("load/load paired")
	}
	f.Consume(sized(aluEvent(0x400008, 1, 2), 3))
	if f.Pairs != 1 {
		t.Fatalf("load/alu did not pair: %d", f.Pairs)
	}

	// A 4-byte instruction never pairs.
	f = NewFrontendStats()
	f.Consume(sized(aluEvent(0x400000, 1, 2), 4))
	f.Consume(sized(aluEvent(0x400004, 1, 2), 3))
	if f.Pairs != 0 {
		t.Fatalf("4-byte instruction paired")
	}

	// A branch may close a pair but nothing pairs across it.
	f = NewFrontendStats()
	f.Consume(sized(aluEvent(0x400000, 1, 2), 3))
	f.Consume(sized(branchEvent(0x400004), 3))
	f.Consume(sized(aluEvent(0x400008, 1, 2), 3))
	f.Consume(sized(aluEvent(0x40000c, 1, 2), 3))
	if f.Pairs != 2 || f.Redirects != 1 {
		t.Fatalf("branch handling: %d pairs / %d redirects, want 2/1", f.Pairs, f.Redirects)
	}
}

// TestFrontendStatsMergeAndState checks the PR 2 merge invariant for the
// new collector: halves merged — via Merge or via the State/AddState wire
// round-trip — equal one collector fed everything, and merging is
// order-independent. Pairing adjacency never spans benchmarks, so the
// fixture's split point sits on a control transfer: the whole-stream
// collector's run breaks exactly where the halves do.
func TestFrontendStatsMergeAndState(t *testing.T) {
	var all []trace.Event
	for i := uint32(0); i < 5; i++ {
		all = append(all, sized(aluEvent(0x400000+4*i, uint32(i), 0xdead0000+i), 3))
	}
	all = append(all, sized(branchEvent(0x400014), 4))
	for i := uint32(0); i < 4; i++ {
		all = append(all, sized(loadEvent(0x400018+4*i, []isa.Reg{isa.RegT2, isa.RegT3}[i%2]), 3))
	}
	first, second := all[:6], all[6:]
	whole, a, b := NewFrontendStats(), NewFrontendStats(), NewFrontendStats()
	for _, e := range all {
		whole.Consume(e)
	}
	for _, e := range first {
		a.Consume(e)
	}
	for _, e := range second {
		b.Consume(e)
	}

	merged := NewFrontendStats()
	merged.Merge(a)
	merged.Merge(b)
	if merged.State() != whole.State() {
		t.Fatalf("merged state %+v, want %+v", merged.State(), whole.State())
	}

	reversed := NewFrontendStats()
	reversed.AddState(b.State())
	reversed.AddState(a.State())
	if reversed.State() != merged.State() {
		t.Fatalf("merge is order-dependent: %+v vs %+v", reversed.State(), merged.State())
	}

	if whole.CompressedShare() != merged.CompressedShare() ||
		whole.PairShare() != merged.PairShare() ||
		whole.MeanRunLength() != merged.MeanRunLength() {
		t.Fatal("derived figures differ after merge")
	}
}

// TestFrontendStatsBatchIdentical pins ConsumeBlock to the oracle on real
// benchmark captures.
func TestFrontendStatsBatchIdentical(t *testing.T) {
	ctx := context.Background()
	for _, bn := range []string{"dijkstra", "g711dec", "rawdaudio"} {
		b, ok := bench.ByName(bn)
		if !ok {
			t.Fatalf("unknown benchmark %q", bn)
		}
		cp, err := trace.CaptureRun(ctx, b)
		if err != nil {
			t.Fatalf("capture %s: %v", bn, err)
		}
		scalar, batch := NewFrontendStats(), NewFrontendStats()
		if err := cp.ReplayBlocks(ctx, rc, eventFunc(scalar.Consume)); err != nil {
			t.Fatalf("%s oracle replay: %v", bn, err)
		}
		if err := cp.ReplayBlocks(ctx, rc, batch); err != nil {
			t.Fatalf("%s batch replay: %v", bn, err)
		}
		if !reflect.DeepEqual(scalar, batch) {
			t.Errorf("%s: batch frontend stats diverge\nscalar: %+v\nbatch:  %+v", bn, scalar, batch)
		}
		if scalar.Insts == 0 || scalar.Compressed == 0 || scalar.Pairs == 0 {
			t.Errorf("%s: degenerate tally %+v", bn, scalar)
		}
	}
}
