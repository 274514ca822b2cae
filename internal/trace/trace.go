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
	"math/bits"

	"repro/internal/bench"
	"repro/internal/cpu"
	"repro/internal/icomp"
	"repro/internal/isa"
	"repro/internal/sig"
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

// blockCounts returns the byte and halfword block counts of a word whose
// per-byte extension marking is free (an Ext3: bit i-1 set means byte i is
// the sign extension of byte i-1). The low block always counts; every
// upper byte counts unless it is free; the upper halfword counts unless
// both of its bytes are free, since its 17-bit window (bits 15..31) is
// uniform exactly when bytes 2 and 3 both extend the byte below. With
// free = sig.Ext3Of(v) the pair is Ext3.SigByteCount and sig.SigHalves of
// v; with the AND of several markings it counts the positions at which any
// of those words is significant.
func blockCounts(free sig.Ext3) (bytes, halves uint32) {
	f := uint32(free)
	return sig.WordBytes - uint32(bits.OnesCount32(f)), 2 - (f>>1)&(f>>2)&1
}

// maxCounts is blockCounts of whichever of two words needs more blocks, per
// granularity.
func maxCounts(x, y sig.Ext3) (bytes, halves uint32) {
	xb, xh := blockCounts(x)
	yb, yh := blockCounts(y)
	return max(xb, yb), max(xh, yh)
}

// addCounts is the significance adder's activity (§2.5) for a + b = sum,
// with ea and eb the markings of a and b. A block is operated on when
// either operand's block is significant (cases 1 and 2), or when neither
// is but the true sum block differs from the sign extension of the sum
// block below it (case 3's Table-4 exceptions) — that is, unless the
// block is free in all three of a, b and sum. Subtraction adds ^b + 1, and
// complementing a word keeps its extension marking, so a - b passes
// Ext3Of(b) and the difference.
func addCounts(ea, eb sig.Ext3, sum uint32) (bytes, halves uint32) {
	return blockCounts(ea & eb & sig.Ext3Of(sum))
}

// aluActivity is the significance-ALU activity of e (§2.5 and the design
// decisions recorded in DESIGN.md §7) at byte and halfword granularity,
// in closed form over the operands' extension markings ea = Ext3Of(SrcA)
// and eb = Ext3Of(SrcB). It equals the BlocksOperated of the block-serial
// sigalu unit at both granularities, which its _test.go oracle checks
// exhaustively over operand extension patterns and on every retired
// instruction of the suite.
func aluActivity(e *cpu.Exec, ea, eb sig.Ext3) (ops, halfOps uint32) {
	in := &e.Inst
	a, b := e.SrcA, e.SrcB
	simm := uint32(int32(in.Imm))
	switch in.Op {
	case isa.OpSpecial:
		switch in.Funct {
		case isa.FnADD, isa.FnADDU:
			return addCounts(ea, eb, a+b)
		case isa.FnSUB, isa.FnSUBU, isa.FnSLT, isa.FnSLTU:
			// SLT/SLTU cost their subtraction.
			return addCounts(ea, eb, a-b)
		case isa.FnAND, isa.FnOR, isa.FnXOR, isa.FnNOR:
			// Blocks where both operands are extensions come for free.
			return blockCounts(ea & eb)
		// Shifts touch the larger of the source's and the result's
		// significant block counts.
		case isa.FnSLL:
			return maxCounts(eb, sig.Ext3Of(b<<(in.Shamt&31)))
		case isa.FnSRL:
			return maxCounts(eb, sig.Ext3Of(b>>(in.Shamt&31)))
		case isa.FnSRA:
			return maxCounts(eb, sig.Ext3Of(uint32(int32(b)>>(in.Shamt&31))))
		case isa.FnSLLV:
			return maxCounts(eb, sig.Ext3Of(b<<(a&31)))
		case isa.FnSRLV:
			return maxCounts(eb, sig.Ext3Of(b>>(a&31)))
		case isa.FnSRAV:
			return maxCounts(eb, sig.Ext3Of(uint32(int32(b)>>(a&31))))
		case isa.FnMULT, isa.FnMULTU, isa.FnDIV, isa.FnDIVU:
			// The iterative units operate on both sources' blocks.
			xb, xh := blockCounts(ea)
			yb, yh := blockCounts(eb)
			return xb + yb, xh + yh
		case isa.FnJALR, isa.FnMFHI, isa.FnMFLO, isa.FnMTHI, isa.FnMTLO:
			// Link/move values: the unit produces the significant blocks.
			return blockCounts(sig.Ext3Of(e.Result))
		}
		// JR (address passthrough), SYSCALL, BREAK.
		return 1, 1
	case isa.OpADDI, isa.OpADDIU,
		isa.OpLB, isa.OpLBU, isa.OpLH, isa.OpLHU, isa.OpLW,
		isa.OpSB, isa.OpSH, isa.OpSW:
		// Loads and stores pay their effective-address addition.
		return addCounts(ea, sig.Ext3Of(simm), a+simm)
	case isa.OpSLTI, isa.OpSLTIU:
		return addCounts(ea, sig.Ext3Of(simm), a-simm)
	case isa.OpANDI, isa.OpORI, isa.OpXORI:
		return blockCounts(ea & sig.Ext3Of(uint32(uint16(in.Imm))))
	case isa.OpLUI, isa.OpJAL:
		return blockCounts(sig.Ext3Of(e.Result))
	case isa.OpBEQ, isa.OpBNE:
		// The comparator reads stored blocks up to the larger count.
		return maxCounts(ea, eb)
	}
	// BLEZ/BGTZ/REGIMM sign and zero tests examine the extension bits plus
	// the top significant block; J has nothing to operate on.
	return 1, 1
}

// sigWord packs e's ten significance quantities into one sig-column word
// (the sig*Shift layout in capture.go; PackedSig unpacks it). Every
// quantity depends only on the Exec record — instruction shape and the
// dynamic values that flowed through it — never on the instruction
// recoding, which is what lets a Capture store the column once and replay
// it under any recoder. Source counts are 0 for a port that is not read,
// data-access counts are capped at the access width, and writeback counts
// are 0 when no register is written.
func sigWord(e *cpu.Exec) uint32 {
	ea, eb := sig.Ext3Of(e.SrcA), sig.Ext3Of(e.SrcB)
	ops, halfOps := aluActivity(e, ea, eb)
	w := ops<<sigALUOpsShift | halfOps<<sigALUHalfShift
	if e.ReadsA {
		n, h := blockCounts(ea)
		w |= n<<sigSrcBytesAShift | h<<sigSrcHalvesAShift
	}
	if e.ReadsB {
		n, h := blockCounts(eb)
		w |= n<<sigSrcBytesBShift | h<<sigSrcHalvesBShift
	}
	if e.MemWidth > 0 {
		v := e.Loaded
		if e.Inst.IsStore() {
			v = e.StoreVal
		}
		n, h := blockCounts(sig.Ext3Of(v))
		width := uint32(e.MemWidth)
		w |= min(n, width)<<sigMemBytesShift | min(h, (width+1)/2)<<sigMemHalvesShift
	}
	if e.HasDest {
		n, h := blockCounts(sig.Ext3Of(e.Result))
		w |= n<<sigWBBytesShift | h<<sigWBHalvesShift
	}
	return w
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
// retire, and returns the number retired. The record is reused for every
// instruction, so retire must not keep the pointer. It fails only on
// cancellation and on a faulting instruction; what names the run in those
// errors. Reaching limit is not an error here: callers decide (benchDone,
// Interpret).
func interpret(ctx context.Context, c *cpu.CPU, what string, limit uint64, retire func(*cpu.Exec)) (uint64, error) {
	var (
		n   uint64
		e   cpu.Exec
		err error
	)
	for !c.Done && n < limit {
		if n&ctxCheckMask == 0 {
			select {
			case <-ctx.Done():
				return n, fmt.Errorf("trace: %s aborted after %d instructions: %w", what, n, ctx.Err())
			default:
			}
		}
		if e, err = c.Step(); err != nil {
			return n, fmt.Errorf("trace: %s: %w", what, err)
		}
		retire(&e)
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
	// Tally by function code (a 6-bit field) and build the map once.
	var tally [64]uint64
	count := func(e *cpu.Exec) {
		if e.Inst.Op == isa.OpSpecial {
			tally[e.Inst.Funct&63]++
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
	counts := make(map[isa.Funct]uint64)
	for fn, n := range tally {
		if n > 0 {
			counts[isa.Funct(fn)] = n
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
