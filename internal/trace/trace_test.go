package trace

import (
	"context"
	"errors"
	"testing"

	"repro/internal/bench"
	"repro/internal/cpu"
	"repro/internal/icomp"
	"repro/internal/isa"
)

var rc = icomp.MustNewRecoder(icomp.DefaultTopFuncts())

func TestAnnotateALUEvent(t *testing.T) {
	raw := isa.EncodeR(isa.FnADDU, isa.RegT0, isa.RegT1, isa.RegT2, 0)
	e := cpu.Exec{
		PC: 0x400000, Raw: raw, Inst: isa.Decode(raw),
		SrcA: 0x12345678, SrcB: 0x3, ReadsA: true, ReadsB: true,
		Dest: isa.RegT2, Result: 0x1234567b, HasDest: true, NextPC: 0x400004,
	}
	ev := annotate(e)
	if ev.IFBytes != 3 { // addu is in the default top-8
		t.Errorf("IFBytes = %d", ev.IFBytes)
	}
	if ev.SrcBytesA != 4 || ev.SrcBytesB != 1 {
		t.Errorf("src bytes: %d/%d", ev.SrcBytesA, ev.SrcBytesB)
	}
	if ev.SrcHalvesA != 2 || ev.SrcHalvesB != 1 {
		t.Errorf("src halves: %d/%d", ev.SrcHalvesA, ev.SrcHalvesB)
	}
	if ev.ALUOps != 4 {
		t.Errorf("ALU ops = %d (adding into a 4-byte value)", ev.ALUOps)
	}
	if ev.WBBytes != 4 {
		t.Errorf("WB bytes = %d", ev.WBBytes)
	}
	if ev.MaxSrcBytes() != 4 || ev.MaxSrcHalves() != 2 {
		t.Errorf("max src: %d/%d", ev.MaxSrcBytes(), ev.MaxSrcHalves())
	}
}

func TestAnnotateLoadStore(t *testing.T) {
	// lb: one byte moved regardless of value.
	raw := isa.EncodeI(isa.OpLB, isa.RegT0, isa.RegT1, 0)
	e := cpu.Exec{
		PC: 0x400000, Raw: raw, Inst: isa.Decode(raw),
		SrcA: 0x10000000, ReadsA: true,
		Dest: isa.RegT1, Result: 0xfffffff0, HasDest: true,
		Addr: 0x10000000, MemWidth: 1, Loaded: 0xfffffff0,
		NextPC: 0x400004,
	}
	ev := annotate(e)
	if ev.MemBytes != 1 || ev.MemHalves != 1 {
		t.Errorf("lb moved %d bytes / %d halves", ev.MemBytes, ev.MemHalves)
	}
	if ev.WBBytes != 1 { // sign-extended negative: one significant byte
		t.Errorf("lb WB bytes = %d", ev.WBBytes)
	}

	// sw of a small value: one significant byte moved.
	raw = isa.EncodeI(isa.OpSW, isa.RegT0, isa.RegT1, 0)
	e = cpu.Exec{
		PC: 0x400000, Raw: raw, Inst: isa.Decode(raw),
		SrcA: 0x10000000, SrcB: 7, ReadsA: true, ReadsB: true,
		Addr: 0x10000000, MemWidth: 4, StoreVal: 7,
		NextPC: 0x400004,
	}
	ev = annotate(e)
	if ev.MemBytes != 1 {
		t.Errorf("sw of 7 moved %d bytes", ev.MemBytes)
	}
	if ev.WBBytes != 0 {
		t.Errorf("store has WB bytes %d", ev.WBBytes)
	}
}

func TestAnnotateNoSources(t *testing.T) {
	raw := isa.EncodeJ(isa.OpJ, 0x100)
	e := cpu.Exec{PC: 0x400000, Raw: raw, Inst: isa.Decode(raw), Taken: true, NextPC: 0x400400}
	ev := annotate(e)
	if ev.SrcBytesA != 0 || ev.SrcBytesB != 0 {
		t.Errorf("jump reads: %d/%d", ev.SrcBytesA, ev.SrcBytesB)
	}
	if ev.MaxSrcBytes() != 1 {
		t.Errorf("MaxSrcBytes floor = %d", ev.MaxSrcBytes())
	}
	if ev.IFBytes != 4 {
		t.Errorf("j should fetch 4 bytes, got %d", ev.IFBytes)
	}
}

// annotate returns the Event a replay under rc reconstructs for e: the
// annotation every consumer sees.
func annotate(e cpu.Exec) Event {
	cp := NewCapture(bench.Benchmark{})
	cp.Record(e)
	var ev Event
	if err := cp.ReplayBlocks(context.Background(), rc, blockFunc(func(b *Block) { b.EventAt(0, &ev) })); err != nil {
		panic(err)
	}
	return ev
}

// blockFunc adapts a function to Consumer.
type blockFunc func(*Block)

func (f blockFunc) ConsumeBlock(b *Block) { f(b) }

func TestRunVerifiesChecksum(t *testing.T) {
	ctx := context.Background()
	b, _ := bench.ByName("rawcaudio")
	bad := b
	bad.Checksum++ // corrupt the expectation
	if _, err := CaptureRun(ctx, bad); err == nil {
		t.Fatal("capture must fail on checksum mismatch")
	}
	cp, err := CaptureRun(ctx, b)
	if err != nil {
		t.Fatalf("capture failed on valid benchmark: %v", err)
	}
	if err := cp.ReplayBlocks(ctx, rc); err != nil {
		t.Fatalf("replay failed on valid benchmark: %v", err)
	}
}

// TestRunFanOut checks every consumer of a replay sees every retired
// instruction.
func TestRunFanOut(t *testing.T) {
	ctx := context.Background()
	b, _ := bench.ByName("g711dec")
	cp, err := CaptureRun(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	var n1, n2 int
	c1 := blockFunc(func(blk *Block) { n1 += blk.Len() })
	c2 := blockFunc(func(blk *Block) { n2 += blk.Len() })
	if err := cp.ReplayBlocks(ctx, rc, c1, c2); err != nil {
		t.Fatal(err)
	}
	c, err := b.RunVerified()
	if err != nil {
		t.Fatal(err)
	}
	if uint64(n1) != c.Retired || uint64(n2) != c.Retired {
		t.Fatalf("consumers saw %d/%d rows, cpu retired %d", n1, n2, c.Retired)
	}
}

func TestRunCtxCancelled(t *testing.T) {
	b, _ := bench.ByName("crc32")
	cp, err := CaptureRun(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: both must abort at the first poll
	if _, err := CaptureRun(ctx, b); !errors.Is(err, context.Canceled) {
		t.Fatalf("capture on cancelled context: err = %v, want context.Canceled", err)
	}
	if err := cp.ReplayBlocks(ctx, rc); !errors.Is(err, context.Canceled) {
		t.Fatalf("replay on cancelled context: err = %v, want context.Canceled", err)
	}
}

func TestRunCtxMidRunCancel(t *testing.T) {
	b, _ := bench.ByName("crc32")
	cp, err := CaptureRun(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var n int
	stop := blockFunc(func(blk *Block) {
		n += blk.Len()
		if n >= 10_000 { // cancel mid-trace; crc32 retires ~200k instructions
			cancel()
		}
	})
	err = cp.ReplayBlocks(ctx, rc, stop)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: err = %v, want context.Canceled", err)
	}
	if n >= 100_000 {
		t.Fatalf("replay consumed %d rows after cancellation", n)
	}
}

func TestRunInstructionLimit(t *testing.T) {
	b, _ := bench.ByName("crc32")
	b.MaxInsts = 100
	if _, err := CaptureRun(context.Background(), b); err == nil {
		t.Fatal("expected instruction-limit error from CaptureRun")
	}
}

func TestFunctProfileAndRecoder(t *testing.T) {
	counts, err := FunctProfile(bench.All()[:2])
	if err != nil {
		t.Fatal(err)
	}
	if counts[isa.FnADDU] == 0 {
		t.Error("addu must appear in any real trace")
	}
	r2, counts2, err := SuiteRecoder(bench.All()[:2])
	if err != nil {
		t.Fatal(err)
	}
	if r2 == nil || len(counts2) == 0 {
		t.Fatal("empty recoder or profile")
	}
	// The most frequent funct must be compact.
	top := icomp.TopFuncts(counts2, 1)
	if !r2.IsCompact(top[0]) {
		t.Errorf("top funct %v not compact", top[0])
	}
}

func TestALUActivityBranches(t *testing.T) {
	// beq with equal small operands: one byte compared.
	raw := isa.EncodeI(isa.OpBEQ, isa.RegT0, isa.RegT1, 4)
	e := cpu.Exec{
		PC: 0x400000, Raw: raw, Inst: isa.Decode(raw),
		SrcA: 5, SrcB: 5, ReadsA: true, ReadsB: true, NextPC: 0x400004,
	}
	if got := annotate(e).ALUOps; got != 1 {
		t.Errorf("narrow beq ALU ops = %d", got)
	}
	e.SrcA, e.SrcB = 0x12345678, 0x12345678
	if got := annotate(e).ALUOps; got != 4 {
		t.Errorf("wide beq ALU ops = %d", got)
	}
	// Sign test: extension bits plus top block only.
	raw = isa.EncodeI(isa.OpBLEZ, isa.RegT0, 0, 4)
	e = cpu.Exec{
		PC: 0x400000, Raw: raw, Inst: isa.Decode(raw),
		SrcA: 0x12345678, ReadsA: true, NextPC: 0x400004,
	}
	if got := annotate(e).ALUOps; got != 1 {
		t.Errorf("blez ALU ops = %d", got)
	}
}

func TestALUActivityShiftAndLui(t *testing.T) {
	raw := isa.EncodeI(isa.OpLUI, 0, isa.RegT0, 0x1000)
	e := cpu.Exec{
		PC: 0x400000, Raw: raw, Inst: isa.Decode(raw),
		Dest: isa.RegT0, Result: 0x10000000, HasDest: true, NextPC: 0x400004,
	}
	// 0x10000000 = pattern "sees": 2 significant bytes.
	if got := annotate(e).ALUOps; got != 2 {
		t.Errorf("lui ALU ops = %d", got)
	}
}
