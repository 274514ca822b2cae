package pipeline

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/icomp"
	"repro/internal/isa"
)

// Synthetic event builders for engine unit tests.

var testRecoder = icomp.MustNewRecoder(icomp.DefaultTopFuncts())

// aluExec builds an addu dest, t0, t1 with the given operand values.
func aluExec(pc uint32, dest isa.Reg, a, b uint32) cpu.Exec {
	raw := isa.EncodeR(isa.FnADDU, isa.RegT0, isa.RegT1, dest, 0)
	return cpu.Exec{
		PC: pc, Raw: raw, Inst: isa.Decode(raw),
		SrcA: a, SrcB: b, ReadsA: true, ReadsB: true,
		Dest: dest, Result: a + b, HasDest: dest != 0,
		NextPC: pc + 4,
	}
}

// loadExec builds a lw dest, 0(t0).
func loadExec(pc uint32, dest isa.Reg, addr, val uint32) cpu.Exec {
	raw := isa.EncodeI(isa.OpLW, isa.RegT0, dest, 0)
	return cpu.Exec{
		PC: pc, Raw: raw, Inst: isa.Decode(raw),
		SrcA: addr, ReadsA: true,
		Dest: dest, Result: val, HasDest: true,
		Addr: addr, MemWidth: 4, Loaded: val,
		NextPC: pc + 4,
	}
}

// branchExec builds a beq t0, t1 with the given operand values.
func branchExec(pc uint32, a, b uint32, taken bool) cpu.Exec {
	raw := isa.EncodeI(isa.OpBEQ, isa.RegT0, isa.RegT1, 4)
	e := cpu.Exec{
		PC: pc, Raw: raw, Inst: isa.Decode(raw),
		SrcA: a, SrcB: b, ReadsA: true, ReadsB: true,
		NextPC: pc + 4,
	}
	if taken {
		e.Taken = true
		e.NextPC = e.Inst.BranchTarget(pc)
	}
	return e
}

// loopStream builds n events by cycling gen over a small PC region so the
// working set fits the caches.
func loopStream(n int, gen func(i int, pc uint32) cpu.Exec) []cpu.Exec {
	execs := make([]cpu.Exec, 0, n)
	pc := uint32(0x0040_0000)
	for i := 0; i < n; i++ {
		execs = append(execs, gen(i, pc))
		pc += 4
		if pc >= 0x0040_0200 { // 512 B loop: 16 I-cache lines
			pc = 0x0040_0000
		}
	}
	return execs
}

// steadyCPI measures marginal CPI through the block kernel: it feeds the
// stream twice in one trace, snapshots once the first lap has warmed the
// caches, and returns the second lap's rate.
func steadyCPI(t *testing.T, m *Model, execs []cpu.Exec) (float64, Result) {
	t.Helper()
	var warm Result
	kernelFeed(t, m, append(append([]cpu.Exec(nil), execs...), execs...), len(execs), func() { warm = m.Result() })
	r := m.Result()
	cpi := float64(r.Cycles-warm.Cycles) / float64(r.Insts-warm.Insts)
	return cpi, r
}

// Independent single-byte ALU operations on the baseline sustain CPI 1.
func TestBaselineSteadyStateCPI(t *testing.T) {
	cpi, _ := steadyCPI(t, NewBaseline32(), loopStream(2000, func(i int, pc uint32) cpu.Exec {
		return aluExec(pc, isa.RegT2, 1, 2)
	}))
	if cpi > 1.05 {
		t.Fatalf("independent ALU CPI = %.3f, want ~1", cpi)
	}
}

// Back-to-back dependent ALU operations are fully forwarded in the
// baseline: still CPI 1.
func TestBaselineForwardingNoStall(t *testing.T) {
	cpi, _ := steadyCPI(t, NewBaseline32(), loopStream(2000, func(i int, pc uint32) cpu.Exec {
		e := aluExec(pc, isa.RegT2, uint32(i), 1)
		e.Inst.Rs, e.Inst.Rt = isa.RegT2, isa.RegT2 // consume own chain
		return e
	}))
	if cpi > 1.05 {
		t.Fatalf("dependent ALU CPI = %.3f, want ~1 with forwarding", cpi)
	}
}

// A branch with no prediction costs two bubbles in the baseline.
func TestBaselineBranchPenalty(t *testing.T) {
	run := func(branchEvery int) float64 {
		cpi, _ := steadyCPI(t, NewBaseline32(), loopStream(4000, func(i int, pc uint32) cpu.Exec {
			if i%branchEvery == branchEvery-1 {
				return branchExec(pc, 0, 0, false)
			}
			return aluExec(pc, isa.RegT2, 1, 2)
		}))
		return cpi
	}
	delta := run(5) - run(1<<20)
	// One branch in five at 2 bubbles each adds ~0.4 CPI.
	if delta < 0.3 || delta > 0.5 {
		t.Fatalf("branch penalty delta = %.3f CPI, want ~0.4", delta)
	}
}

// Load-use in the baseline costs one bubble.
func TestBaselineLoadUseBubble(t *testing.T) {
	cpi, r := steadyCPI(t, NewBaseline32(), loopStream(2000, func(i int, pc uint32) cpu.Exec {
		if i%2 == 0 {
			return loadExec(pc, isa.RegT0, 0x1000_0000, 7)
		}
		return aluExec(pc, isa.RegT2, 7, 1) // reads t0: load-use
	}))
	if cpi < 1.4 || cpi > 1.6 {
		t.Fatalf("load-use CPI = %.3f, want ~1.5", cpi)
	}
	if r.Stalls[StallData] == 0 {
		t.Fatal("expected data-hazard stalls")
	}
}

// Byte-serial: wide operands serialize the pipeline; ALU work beyond the
// operand width (Table-4 exception bytes) shows up as EX structural stalls.
func TestByteSerialWideOperandsSerialize(t *testing.T) {
	narrow, _ := steadyCPI(t, NewByteSerial(), loopStream(2000, func(i int, pc uint32) cpu.Exec {
		return aluExec(pc, isa.RegT2, 3, 4)
	}))
	wide, rw := steadyCPI(t, NewByteSerial(), loopStream(2000, func(i int, pc uint32) cpu.Exec {
		return aluExec(pc, isa.RegT2, 0x12345678, 0x01020304)
	}))
	if narrow >= wide {
		t.Fatalf("narrow CPI %.3f should beat wide CPI %.3f", narrow, wide)
	}
	if wide < 3.0 {
		t.Fatalf("wide byte-serial CPI %.3f, expected near 4", wide)
	}
	// Operands with one significant byte whose sum overflows: RF takes one
	// cycle but the ALU needs a second byte (exception) -> EX binds.
	_, rx := steadyCPI(t, NewByteSerial(), loopStream(2000, func(i int, pc uint32) cpu.Exec {
		return aluExec(pc, isa.RegT2, 0xffffff80, 0xffffff80)
	}))
	if rx.Stalls[StallStructEX] == 0 {
		t.Fatal("expected EX structural stalls when ALU work exceeds operand width")
	}
	_ = rw
}

// The I-cache is three bytes wide: four-byte instructions occupy fetch for
// two cycles in the byte-serial design.
func TestByteSerialFourByteFetch(t *testing.T) {
	cpi, _ := steadyCPI(t, NewByteSerial(), loopStream(2000, func(i int, pc uint32) cpu.Exec {
		// NOR is outside the default top-8 recode: always 4 bytes.
		raw := isa.EncodeR(isa.FnNOR, isa.RegT0, isa.RegT1, isa.RegT2, 0)
		return cpu.Exec{
			PC: pc, Raw: raw, Inst: isa.Decode(raw),
			SrcA: 1, SrcB: 1, ReadsA: true, ReadsB: true,
			Dest: isa.RegT2, Result: ^uint32(1), HasDest: true,
			NextPC: pc + 4,
		}
	}))
	if cpi < 1.8 {
		t.Fatalf("four-byte-instruction CPI = %.3f, want ~2", cpi)
	}
}

// The compressed model's banked second cycles add latency, not occupancy:
// independent wide-operand instructions still sustain CPI ~1.
func TestCompressedBankedStagesPipeline(t *testing.T) {
	cpi, _ := steadyCPI(t, NewParallelCompressed(), loopStream(2000, func(i int, pc uint32) cpu.Exec {
		e := aluExec(pc, 0, 0x00012345, 2) // wide source, no dest
		return e
	}))
	if cpi > 1.05 {
		t.Fatalf("independent wide ops on compressed: CPI %.3f, want ~1", cpi)
	}
}

// The compressed model's wide-operand latency lengthens branch shadows:
// wide-operand branches cost more than narrow ones.
func TestCompressedWideBranchLatency(t *testing.T) {
	run := func(opval uint32) float64 {
		cpi, _ := steadyCPI(t, NewParallelCompressed(), loopStream(4000, func(i int, pc uint32) cpu.Exec {
			if i%4 == 3 {
				return branchExec(pc, opval, opval, false)
			}
			return aluExec(pc, isa.RegT2, 1, 2)
		}))
		return cpi
	}
	if narrow, wide := run(1), run(0x12345678); narrow >= wide {
		t.Fatalf("narrow-branch CPI %.3f should beat wide-branch CPI %.3f", narrow, wide)
	}
}

// Deterministic scheduling.
func TestDeterminism(t *testing.T) {
	build := func() Result {
		_, r := steadyCPI(t, NewSemiParallel(), loopStream(1000, func(i int, pc uint32) cpu.Exec {
			return aluExec(pc, isa.RegT2, uint32(i)*3, uint32(i)<<7)
		}))
		return r
	}
	a, b := build(), build()
	if a.Cycles != b.Cycles || a.Insts != b.Insts {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestNewByName(t *testing.T) {
	for _, n := range AllNames() {
		m := New(n)
		if m == nil {
			t.Fatalf("New(%q) = nil", n)
		}
		if m.Name() != n {
			t.Fatalf("New(%q).Name() = %q", n, m.Name())
		}
	}
	if New("bogus") != nil {
		t.Fatal("unknown name should return nil")
	}
}

func TestResultCPIZeroInsts(t *testing.T) {
	var r Result
	if r.CPI() != 0 {
		t.Fatal("CPI of empty result should be 0")
	}
}

// Taken control flow blocks fetch: a tight taken-branch loop on the
// baseline runs at CPI ~3 (1 + 2-cycle resolution shadow).
func TestTakenBranchLoop(t *testing.T) {
	m := NewBaseline32()
	execs := make([]cpu.Exec, 2000)
	for i := range execs {
		execs[i] = branchExec(0x0040_0000, 0, 0, true)
	}
	var warm Result
	kernelFeed(t, m, execs, 1000, func() { warm = m.Result() })
	r := m.Result()
	cpi := float64(r.Cycles-warm.Cycles) / float64(r.Insts-warm.Insts)
	if cpi < 2.5 || cpi > 3.5 {
		t.Fatalf("taken-branch loop CPI = %.3f, want ~3", cpi)
	}
	if r.Stalls[StallBranch] == 0 {
		t.Fatal("expected branch stalls")
	}
}

// The skewed designs resolve short-operand branches as early as the
// baseline, but wide-operand branches pay for the extra slices.
func TestSkewedBranchResolutionByWidth(t *testing.T) {
	run := func(name string, opval uint32) float64 {
		cpi, _ := steadyCPI(t, New(name), loopStream(4000, func(i int, pc uint32) cpu.Exec {
			if i%4 == 3 {
				return branchExec(pc, opval, opval, false)
			}
			return aluExec(pc, isa.RegT2, 1, 2)
		}))
		return cpi
	}
	for _, name := range []string{NameParallelSkewed, NameParallelSkewedBypass} {
		if narrow, wide := run(name, 1), run(name, 0x7fffffff); narrow >= wide {
			t.Errorf("%s: narrow-branch CPI %.3f should beat wide %.3f", name, narrow, wide)
		}
	}
}

func TestSetHierarchy(t *testing.T) {
	cfg := memDefaultConfigSmall()
	m := NewBaseline32().SetHierarchy(cfg)
	// Smaller I-cache: the 512 B loop still fits; behaviour unchanged.
	cpi, _ := steadyCPI(t, m, loopStream(1000, func(i int, pc uint32) cpu.Exec {
		return aluExec(pc, isa.RegT2, 1, 2)
	}))
	if cpi > 1.05 {
		t.Fatalf("cpi: %.3f", cpi)
	}
	// After consuming, swapping the hierarchy must panic.
	defer func() {
		if recover() == nil {
			t.Fatal("SetHierarchy after start should panic")
		}
	}()
	m.SetHierarchy(cfg)
}
