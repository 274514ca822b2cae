// Package trace runs benchmarks on the functional interpreter and annotates
// every retired instruction with the significance quantities the activity
// and timing models consume (§2): compressed fetch size, significant
// operand/result bytes, significance-ALU activity, and data-access
// significance — at both byte and halfword granularity.
//
// A benchmark's trace is produced once and fanned out to any number of
// consumers, exactly as the paper feeds one Mediabench trace to its
// trace-driven studies. Consumers see it only as column blocks (Block),
// from one of three sources behind Replayer: a resident Capture, a
// MappedCapture streaming SIGCAP02 frames, or Live interpretation.
package trace

import (
	"context"
	"fmt"

	"repro/internal/bench"
	"repro/internal/cpu"
	"repro/internal/icomp"
	"repro/internal/isa"
	"repro/internal/sig"
	"repro/internal/sigalu"
)

// Event is one retired instruction with its significance annotation: the
// row-at-a-time view of a Block, built on demand by Block.EventAt for
// reference oracles and tests. Consumers read the block's columns instead.
type Event struct {
	cpu.Exec

	// IFBytes is the compressed instruction size (3 or 4, §2.3).
	IFBytes int

	// SrcBytesA/B are the significant byte counts of the register sources
	// under the 3-bit scheme (0 when the operand is not read).
	SrcBytesA, SrcBytesB int
	// SrcHalvesA/B are the halfword-granularity equivalents.
	SrcHalvesA, SrcHalvesB int

	// ALUOps is the number of byte positions the significance ALU operates
	// on for this instruction (§2.5); ALUHalfOps is the halfword count.
	ALUOps, ALUHalfOps int

	// MemBytes / MemHalves are the significant units moved by the D-cache
	// data access (0 for non-memory instructions).
	MemBytes, MemHalves int

	// WBBytes / WBHalves are the significant units of the written-back
	// result (0 when no register is written).
	WBBytes, WBHalves int
}

// MaxSrcBytes returns the larger significant-byte count of the two register
// sources (minimum 1: the low byte is always read when any operand is).
func (e Event) MaxSrcBytes() int {
	n := e.SrcBytesA
	if e.SrcBytesB > n {
		n = e.SrcBytesB
	}
	if n == 0 {
		n = 1
	}
	return n
}

// MaxSrcHalves is the halfword analogue of MaxSrcBytes.
func (e Event) MaxSrcHalves() int {
	n := e.SrcHalvesA
	if e.SrcHalvesB > n {
		n = e.SrcHalvesB
	}
	if n == 0 {
		n = 1
	}
	return n
}

// sigCap returns the significant bytes of v capped at the access width.
func sigCap(v uint32, width int) int {
	n := sig.Ext3Of(v).SigByteCount()
	if n > width {
		n = width
	}
	return n
}

func sigCapHalf(v uint32, width int) int {
	n := sig.SigHalves(v)
	if limit := (width + 1) / 2; n > limit {
		n = limit
	}
	return n
}

// aluActivity computes the significance-ALU activity of e at block
// granularity g (1 = byte, 2 = halfword), following §2.5 and the design
// decisions recorded in DESIGN.md.
func aluActivity(e cpu.Exec, g int) int {
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
			return 1 // address passthrough
		case isa.FnJALR, isa.FnMFHI, isa.FnMFLO, isa.FnMTHI, isa.FnMTLO:
			// Link/move values: the unit produces the significant blocks.
			return sigalu.SigBlocks(e.Result, g)
		default: // SYSCALL, BREAK
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
		// Effective-address addition.
		return sigalu.AddG(a, simm, g).BlocksOperated
	case isa.OpBEQ, isa.OpBNE:
		_, r := sigalu.CompareG(a, b, g)
		return r.BlocksOperated
	case isa.OpBLEZ, isa.OpBGTZ, isa.OpRegimm:
		// Sign/zero tests examine the extension bits plus the top
		// significant block.
		return 1
	case isa.OpJ, isa.OpJAL:
		if _, ok := in.DestReg(); ok {
			return sigalu.SigBlocks(e.Result, g)
		}
		return 1
	}
	return 1
}

// annotateSig fills in the significance annotation: every quantity except
// IFBytes depends only on the Exec record (instruction shape and the
// dynamic values that flowed through it), never on the instruction
// recoding. This split is what lets a Capture store the significance
// columns once and replay them under any recoder.
func annotateSig(ev *Event) {
	e := ev.Exec
	if e.ReadsA {
		ev.SrcBytesA = sig.Ext3Of(e.SrcA).SigByteCount()
		ev.SrcHalvesA = sig.SigHalves(e.SrcA)
	}
	if e.ReadsB {
		ev.SrcBytesB = sig.Ext3Of(e.SrcB).SigByteCount()
		ev.SrcHalvesB = sig.SigHalves(e.SrcB)
	}
	ev.ALUOps = aluActivity(e, 1)
	ev.ALUHalfOps = aluActivity(e, 2)
	if e.MemWidth > 0 {
		v := e.Loaded
		if e.Inst.IsStore() {
			v = e.StoreVal
		}
		ev.MemBytes = sigCap(v, e.MemWidth)
		ev.MemHalves = sigCapHalf(v, e.MemWidth)
	}
	if e.HasDest {
		ev.WBBytes = sig.Ext3Of(e.Result).SigByteCount()
		ev.WBHalves = sig.SigHalves(e.Result)
	}
}

// Consumer receives a trace as column blocks (see Block), from whichever
// source produced it: a resident Capture, a MappedCapture streaming frames,
// or a Live interpretation. Every timing model and activity collector
// implements exactly this one method.
type Consumer interface {
	ConsumeBlock(b *Block)
}

// ctxCheckMask sets how often the interpreter loop polls the context:
// every (ctxCheckMask+1) instructions, cheap enough to be invisible in
// profiles while keeping cancellation latency well under a millisecond.
const ctxCheckMask = 0xFFF

// interpret is the one interpreter loop. It steps c until the program halts
// or limit instructions have retired, handing every retired instruction to
// retire, and returns the number retired. It fails only on cancellation and
// on a faulting instruction; what names the run in those errors. Reaching
// limit is not an error here: callers decide (benchDone, Interpret).
func interpret(ctx context.Context, c *cpu.CPU, what string, limit uint64, retire func(cpu.Exec)) (uint64, error) {
	var n uint64
	for !c.Done && n < limit {
		if n&ctxCheckMask == 0 {
			select {
			case <-ctx.Done():
				return n, fmt.Errorf("trace: %s aborted after %d instructions: %w", what, n, ctx.Err())
			default:
			}
		}
		e, err := c.Step()
		if err != nil {
			return n, fmt.Errorf("trace: %s: %w", what, err)
		}
		retire(e)
		n++
	}
	return n, nil
}

// benchDone checks a benchmark run that interpret returned from cleanly:
// the program must have halted within b.MaxInsts with b's checksum.
func benchDone(c *cpu.CPU, b bench.Benchmark) error {
	if !c.Done {
		return fmt.Errorf("trace: %s exceeded %d instructions", b.Name, b.MaxInsts)
	}
	if got := c.Regs[bench.ChecksumReg]; got != b.Checksum {
		return fmt.Errorf("trace: %s checksum %#08x, want %#08x", b.Name, got, b.Checksum)
	}
	return nil
}

// FunctProfile tallies dynamic R-format function-code frequencies over the
// whole suite — the input to the paper's Table 3 recoding. It needs only
// the decoded instructions, so it steps each benchmark (checksum-verified)
// without annotating or recording anything.
func FunctProfile(benchmarks []bench.Benchmark) (map[isa.Funct]uint64, error) {
	return FunctProfileCtx(context.Background(), benchmarks)
}

// FunctProfileCtx is FunctProfile with request-scoped cancellation.
func FunctProfileCtx(ctx context.Context, benchmarks []bench.Benchmark) (map[isa.Funct]uint64, error) {
	counts := make(map[isa.Funct]uint64)
	count := func(e cpu.Exec) {
		if e.Inst.Op == isa.OpSpecial {
			counts[e.Inst.Funct]++
		}
	}
	for _, b := range benchmarks {
		c, err := b.NewCPU()
		if err == nil {
			if _, err = interpret(ctx, c, b.Name, b.MaxInsts, count); err == nil {
				err = benchDone(c, b)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("trace: profiling: %w", err)
		}
	}
	return counts, nil
}

// SuiteRecoder builds the profile-driven instruction recoder over the given
// benchmarks (normally bench.All()).
func SuiteRecoder(benchmarks []bench.Benchmark) (*icomp.Recoder, map[isa.Funct]uint64, error) {
	counts, err := FunctProfile(benchmarks)
	if err != nil {
		return nil, nil, err
	}
	rc, err := icomp.NewRecoder(icomp.TopFuncts(counts, 8))
	if err != nil {
		return nil, nil, err
	}
	return rc, counts, nil
}
