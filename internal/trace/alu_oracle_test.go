package trace

import (
	"context"
	"maps"
	"testing"

	"repro/internal/bench"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/sig"
	"repro/internal/sigalu"
)

// This file is the reference the closed-form annotation (aluActivity,
// sigWord) is judged against: the significance ALU's activity read off the
// block-serial sigalu unit, one granularity at a time, and the annotation
// assembled field by field as Event values. The required mismatch rate is
// zero.

// refALUActivity is the significance-ALU activity of e at block
// granularity g (1 = byte, 2 = halfword), simulated block by block.
func refALUActivity(e cpu.Exec, g int) int {
	in := e.Inst
	a, b := e.SrcA, e.SrcB
	simm := uint32(int32(in.Imm))
	zimm := uint32(uint16(in.Imm))
	switch in.Op {
	case isa.OpSpecial:
		switch in.Funct {
		case isa.FnADD, isa.FnADDU:
			return sigalu.AddG(a, b, g).BlocksOperated
		case isa.FnSUB, isa.FnSUBU:
			return sigalu.SubG(a, b, g).BlocksOperated
		case isa.FnAND:
			return sigalu.AndG(a, b, g).BlocksOperated
		case isa.FnOR:
			return sigalu.OrG(a, b, g).BlocksOperated
		case isa.FnXOR:
			return sigalu.XorG(a, b, g).BlocksOperated
		case isa.FnNOR:
			return sigalu.NorG(a, b, g).BlocksOperated
		case isa.FnSLT:
			return sigalu.SetLessG(a, b, true, g).BlocksOperated
		case isa.FnSLTU:
			return sigalu.SetLessG(a, b, false, g).BlocksOperated
		case isa.FnSLL:
			return sigalu.ShiftLeftG(b, uint32(in.Shamt), g).BlocksOperated
		case isa.FnSRL:
			return sigalu.ShiftRightLG(b, uint32(in.Shamt), g).BlocksOperated
		case isa.FnSRA:
			return sigalu.ShiftRightAG(b, uint32(in.Shamt), g).BlocksOperated
		case isa.FnSLLV:
			return sigalu.ShiftLeftG(b, a, g).BlocksOperated
		case isa.FnSRLV:
			return sigalu.ShiftRightLG(b, a, g).BlocksOperated
		case isa.FnSRAV:
			return sigalu.ShiftRightAG(b, a, g).BlocksOperated
		case isa.FnMULT:
			_, _, r := sigalu.MultG(a, b, true, g)
			return r.BlocksOperated
		case isa.FnMULTU:
			_, _, r := sigalu.MultG(a, b, false, g)
			return r.BlocksOperated
		case isa.FnDIV:
			_, _, r := sigalu.DivG(a, b, true, g)
			return r.BlocksOperated
		case isa.FnDIVU:
			_, _, r := sigalu.DivG(a, b, false, g)
			return r.BlocksOperated
		case isa.FnJR:
			return 1
		case isa.FnJALR, isa.FnMFHI, isa.FnMFLO, isa.FnMTHI, isa.FnMTLO:
			return sigalu.SigBlocks(e.Result, g)
		default:
			return 1
		}
	case isa.OpADDI, isa.OpADDIU:
		return sigalu.AddG(a, simm, g).BlocksOperated
	case isa.OpSLTI:
		return sigalu.SetLessG(a, simm, true, g).BlocksOperated
	case isa.OpSLTIU:
		return sigalu.SetLessG(a, simm, false, g).BlocksOperated
	case isa.OpANDI:
		return sigalu.AndG(a, zimm, g).BlocksOperated
	case isa.OpORI:
		return sigalu.OrG(a, zimm, g).BlocksOperated
	case isa.OpXORI:
		return sigalu.XorG(a, zimm, g).BlocksOperated
	case isa.OpLUI:
		return sigalu.SigBlocks(e.Result, g)
	case isa.OpLB, isa.OpLBU, isa.OpLH, isa.OpLHU, isa.OpLW,
		isa.OpSB, isa.OpSH, isa.OpSW:
		return sigalu.AddG(a, simm, g).BlocksOperated
	case isa.OpBEQ, isa.OpBNE:
		_, r := sigalu.CompareG(a, b, g)
		return r.BlocksOperated
	case isa.OpBLEZ, isa.OpBGTZ, isa.OpRegimm:
		return 1
	case isa.OpJ, isa.OpJAL:
		if _, ok := in.DestReg(); ok {
			return sigalu.SigBlocks(e.Result, g)
		}
		return 1
	}
	return 1
}

// refSigWord is the sig-column word of e assembled field by field: the
// annotation as an Event, each count taken from its own sig-package or
// sigalu reference, then packed.
func refSigWord(e cpu.Exec) uint32 {
	ev := Event{Exec: e}
	if e.ReadsA {
		ev.SrcBytesA = sig.Ext3Of(e.SrcA).SigByteCount()
		ev.SrcHalvesA = sig.SigHalves(e.SrcA)
	}
	if e.ReadsB {
		ev.SrcBytesB = sig.Ext3Of(e.SrcB).SigByteCount()
		ev.SrcHalvesB = sig.SigHalves(e.SrcB)
	}
	ev.ALUOps = refALUActivity(e, 1)
	ev.ALUHalfOps = refALUActivity(e, 2)
	if e.MemWidth > 0 {
		v := e.Loaded
		if e.Inst.IsStore() {
			v = e.StoreVal
		}
		ev.MemBytes = min(sig.Ext3Of(v).SigByteCount(), e.MemWidth)
		ev.MemHalves = min(sig.SigHalves(v), (e.MemWidth+1)/2)
	}
	if e.HasDest {
		ev.WBBytes = sig.Ext3Of(e.Result).SigByteCount()
		ev.WBHalves = sig.SigHalves(e.Result)
	}
	return uint32(ev.SrcBytesA)<<sigSrcBytesAShift |
		uint32(ev.SrcBytesB)<<sigSrcBytesBShift |
		uint32(ev.SrcHalvesA)<<sigSrcHalvesAShift |
		uint32(ev.SrcHalvesB)<<sigSrcHalvesBShift |
		uint32(ev.ALUOps)<<sigALUOpsShift |
		uint32(ev.ALUHalfOps)<<sigALUHalfShift |
		uint32(ev.MemBytes)<<sigMemBytesShift |
		uint32(ev.MemHalves)<<sigMemHalvesShift |
		uint32(ev.WBBytes)<<sigWBBytesShift |
		uint32(ev.WBHalves)<<sigWBHalvesShift
}

// checkALU compares the closed form with the reference at both
// granularities for one instruction shape and operand pair.
func checkALU(t testing.TB, e *cpu.Exec) {
	t.Helper()
	ops, half := aluActivity(e, sig.Ext3Of(e.SrcA), sig.Ext3Of(e.SrcB))
	wantOps, wantHalf := refALUActivity(*e, 1), refALUActivity(*e, 2)
	if int(ops) != wantOps || int(half) != wantHalf {
		t.Fatalf("op %#02x funct %#02x shamt %d imm %#04x a=%#08x b=%#08x result=%#08x: closed form %d/%d, sigalu %d/%d",
			e.Inst.Op, e.Inst.Funct, e.Inst.Shamt, uint16(e.Inst.Imm), e.SrcA, e.SrcB, e.Result, ops, half, wantOps, wantHalf)
	}
}

// structuredValues returns one word per combination of a canonical byte
// extension pattern (all eight Ext3 markings) and significant-byte values
// drawn from the carry and sign boundaries {00, 01, 7f, 80, ff}: each
// marked byte sign-extends the byte below it, and each unmarked upper byte
// is any boundary value that does not, so Ext3Of of every word is exactly
// its pattern. The halfword patterns follow (the upper halfword is an
// extension exactly when bytes 2 and 3 are), and sums of these words carry
// out of, and into, every block position with carry-in 0 and 1.
func structuredValues() []uint32 {
	boundary := []uint32{0x00, 0x01, 0x7f, 0x80, 0xff}
	signExt := func(b uint32) uint32 {
		if b&0x80 != 0 {
			return 0xff
		}
		return 0
	}
	var out []uint32
	var build func(v uint32, i int, pattern sig.Ext3)
	build = func(v uint32, i int, pattern sig.Ext3) {
		if i == sig.WordBytes {
			out = append(out, v)
			return
		}
		prev := v >> (8 * (i - 1)) & 0xff
		if pattern.IsExt(i) {
			build(v|signExt(prev)<<(8*i), i+1, pattern)
			return
		}
		for _, b := range boundary {
			if b != signExt(prev) {
				build(v|b<<(8*i), i+1, pattern)
			}
		}
	}
	for pattern := sig.Ext3(0); pattern < 8; pattern++ {
		for _, b0 := range boundary {
			build(b0, 1, pattern)
		}
	}
	return out
}

// TestStructuredValuesCoverEveryPattern pins the generator: every word
// carries exactly the pattern it was built for, and all eight byte and
// both halfword patterns occur.
func TestStructuredValuesCoverEveryPattern(t *testing.T) {
	var bytePat [8]int
	var halfPat [3]int
	for _, v := range structuredValues() {
		bytePat[sig.Ext3Of(v)]++
		halfPat[sig.SigHalves(v)]++
	}
	for p, n := range bytePat {
		if n == 0 {
			t.Errorf("byte pattern %03b never generated", p)
		}
	}
	if halfPat[1] == 0 || halfPat[2] == 0 {
		t.Errorf("halfword patterns: %v", halfPat[1:])
	}
}

// TestALUActivityClosedFormStructured judges the closed form against the
// block-serial unit over structured operands: every pair of structured
// words through every two-register shape, every structured word against
// every structured 16-bit immediate through every I-format shape, every
// shift amount, and every opcode and function code (the shapes aluActivity
// does not name fall through to its defaults) against results drawn from
// the same set.
func TestALUActivityClosedFormStructured(t *testing.T) {
	vals := structuredValues()
	t0, t1, t2 := isa.RegT0, isa.RegT1, isa.RegT2
	rType := func(fn isa.Funct, shamt uint8) isa.Inst { return isa.Decode(isa.EncodeR(fn, t0, t1, t2, shamt)) }
	iType := func(op isa.Opcode, imm int16) isa.Inst { return isa.Decode(isa.EncodeI(op, t0, t1, imm)) }

	t.Run("register pairs", func(t *testing.T) {
		var shapes []isa.Inst
		for _, fn := range []isa.Funct{
			isa.FnADD, isa.FnADDU, isa.FnSUB, isa.FnSUBU, isa.FnSLT, isa.FnSLTU,
			isa.FnAND, isa.FnOR, isa.FnXOR, isa.FnNOR,
			isa.FnSLLV, isa.FnSRLV, isa.FnSRAV,
			isa.FnMULT, isa.FnMULTU, isa.FnDIV, isa.FnDIVU,
		} {
			shapes = append(shapes, rType(fn, 0))
		}
		shapes = append(shapes, iType(isa.OpBEQ, 4), iType(isa.OpBNE, 4))
		for _, in := range shapes {
			for _, a := range vals {
				for _, b := range vals {
					checkALU(t, &cpu.Exec{Inst: in, SrcA: a, SrcB: b})
				}
			}
		}
	})

	t.Run("immediates", func(t *testing.T) {
		seen := map[uint16]bool{}
		var imms []int16
		for _, v := range vals {
			if !seen[uint16(v)] {
				seen[uint16(v)] = true
				imms = append(imms, int16(v))
			}
		}
		for _, op := range []isa.Opcode{
			isa.OpADDI, isa.OpADDIU, isa.OpSLTI, isa.OpSLTIU,
			isa.OpANDI, isa.OpORI, isa.OpXORI,
			isa.OpLB, isa.OpLBU, isa.OpLH, isa.OpLHU, isa.OpLW, isa.OpSB, isa.OpSH, isa.OpSW,
		} {
			for _, imm := range imms {
				in := iType(op, imm)
				for _, a := range vals {
					checkALU(t, &cpu.Exec{Inst: in, SrcA: a})
				}
			}
		}
	})

	t.Run("shift amounts", func(t *testing.T) {
		for _, fn := range []isa.Funct{isa.FnSLL, isa.FnSRL, isa.FnSRA} {
			for shamt := uint8(0); shamt < 32; shamt++ {
				in := rType(fn, shamt)
				for _, b := range vals {
					checkALU(t, &cpu.Exec{Inst: in, SrcB: b})
				}
			}
		}
	})

	t.Run("every opcode and function code", func(t *testing.T) {
		operands := []uint32{0, 1, 0x7f, 0x80, 0xff, 0x8000, 0x1_0000, 0x7fff_ffff, 0x8000_0000, 0xffff_ff80, 0xffff_ffff}
		for op := 0; op < 64; op++ {
			for fn := 0; fn < 64; fn++ {
				if op != int(isa.OpSpecial) && fn > 0 {
					break
				}
				raw := uint32(op)<<26 | uint32(t0)<<21 | uint32(t1)<<16 | uint32(t2)<<11 | 5<<6 | uint32(fn)
				in := isa.Decode(raw)
				for _, r := range vals {
					for _, a := range operands {
						checkALU(t, &cpu.Exec{Inst: in, SrcA: a, SrcB: ^a, Result: r})
					}
				}
			}
		}
	})
}

// TestSigWordMatchesReferenceOnSuite steps every benchmark of the suite and
// checks the sig word of every retired instruction against the field-by-
// field reference annotation.
func TestSigWordMatchesReferenceOnSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("steps the whole suite")
	}
	for _, b := range bench.All() {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			c, err := b.NewCPU()
			if err != nil {
				t.Fatal(err)
			}
			var n, bad int
			_, err = interpret(context.Background(), c, b.Name, b.MaxInsts, func(e *cpu.Exec, d *cpu.Decoded) {
				n++
				if got, want := sigWord(e), refSigWord(*e); got != want {
					if bad++; bad <= 5 {
						t.Errorf("instruction %d (pc %#x, %#08x a=%#x b=%#x result=%#x): sig %#08x, reference %#08x",
							n-1, e.PC, e.Raw, e.SrcA, e.SrcB, e.Result, got, want)
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := benchDone(c, b); err != nil {
				t.Fatal(err)
			}
			if bad > 0 {
				t.Fatalf("%d of %d instructions differ from the reference", bad, n)
			}
		})
	}
}

// FuzzALUActivityClosedForm checks the closed form against the block-serial
// unit on arbitrary instruction shapes and operands. Opcode, function code
// and shift amount are masked to their field widths; for I-format shapes
// the immediate is shamt:funct, and the result a move or link would write
// is a ^ b.
func FuzzALUActivityClosedForm(f *testing.F) {
	f.Add(uint8(0), uint8(isa.FnADDU), uint8(0), uint32(0xff), uint32(0x01))
	f.Add(uint8(0), uint8(isa.FnSUB), uint8(0), uint32(0), uint32(0x80))
	f.Add(uint8(0), uint8(isa.FnSLT), uint8(0), uint32(0x7fff_ffff), uint32(0xffff_ffff))
	f.Add(uint8(0), uint8(isa.FnSRAV), uint8(0), uint32(7), uint32(0x8000_0000))
	f.Add(uint8(0), uint8(isa.FnMULT), uint8(0), uint32(0x1234), uint32(0xffff_ff80))
	f.Add(uint8(0), uint8(isa.FnMFHI), uint8(0), uint32(0x7f), uint32(0xff80))
	f.Add(uint8(isa.OpADDIU), uint8(0x80), uint8(0xff), uint32(0x7f80), uint32(0))
	f.Add(uint8(isa.OpSLTIU), uint8(0x01), uint8(0x00), uint32(0), uint32(0))
	f.Add(uint8(isa.OpXORI), uint8(0xff), uint8(0xff), uint32(0xffff_0000), uint32(0))
	f.Add(uint8(isa.OpSW), uint8(0xfc), uint8(0xff), uint32(0x1000_0000), uint32(42))
	f.Add(uint8(isa.OpBNE), uint8(0), uint8(0), uint32(0x100), uint32(0xffff_ff00))
	f.Add(uint8(isa.OpJAL), uint8(0), uint8(0), uint32(0x40_0008), uint32(0))
	f.Fuzz(func(t *testing.T, op, funct, shamt uint8, a, b uint32) {
		var raw uint32
		if op&63 == uint8(isa.OpSpecial) {
			raw = isa.EncodeR(isa.Funct(funct&63), isa.RegT0, isa.RegT1, isa.RegT2, shamt&31)
		} else {
			raw = isa.EncodeI(isa.Opcode(op&63), isa.RegT0, isa.RegT1, int16(uint16(shamt)<<8|uint16(funct)))
		}
		checkALU(t, &cpu.Exec{Inst: isa.Decode(raw), SrcA: a, SrcB: b, Result: a ^ b})
	})
}

// TestSigWordAllocFree guards the per-instruction annotate-and-pack step:
// it runs once per retired instruction on every capture and Interpret window.
func TestSigWordAllocFree(t *testing.T) {
	raw := isa.EncodeI(isa.OpSW, isa.RegT0, isa.RegT1, -4)
	e := cpu.Exec{
		Raw: raw, Inst: isa.Decode(raw), SrcA: 0x1000_0010, SrcB: 0x1234, ReadsA: true, ReadsB: true,
		Addr: 0x1000_000c, MemWidth: 4, StoreVal: 0x1234,
	}
	var sink uint32
	if allocs := testing.AllocsPerRun(1000, func() { sink += sigWord(&e) }); allocs != 0 {
		t.Errorf("sigWord allocates %.1f per instruction", allocs)
	}
	if sink == 0 {
		t.Fatal("sigWord returned 0 for a store")
	}
}

// TestFunctProfileMatchesMapTally checks the array tally behind
// FunctProfile against a map tallied per retired instruction over the
// whole suite.
func TestFunctProfileMatchesMapTally(t *testing.T) {
	if testing.Short() {
		t.Skip("steps the whole suite twice")
	}
	got, err := FunctProfile(bench.All())
	if err != nil {
		t.Fatal(err)
	}
	want := map[isa.Funct]uint64{}
	for _, b := range bench.All() {
		c, err := b.NewCPU()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := interpret(context.Background(), c, b.Name, b.MaxInsts, func(e *cpu.Exec, _ *cpu.Decoded) {
			if e.Inst.Op == isa.OpSpecial {
				want[e.Inst.Funct]++
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !maps.Equal(got, want) {
		t.Fatalf("FunctProfile %v, per-instruction tally %v", got, want)
	}
}
