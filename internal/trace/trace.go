// Package trace runs benchmarks on the functional interpreter and annotates
// every retired instruction with the significance quantities the activity
// and timing models consume (§2): compressed fetch size, significant
// operand/result bytes, significance-ALU activity, and data-access
// significance — at both byte and halfword granularity.
//
// A benchmark's trace is produced once and fanned out to any number of
// consumers, exactly as the paper feeds one Mediabench trace to its
// trace-driven studies. Consumers see it only as column blocks (Block),
// from one of two sources behind Replayer: a resident Capture or a
// MappedCapture streaming SIGCAP02 frames. Programs that are not registered
// benchmarks stream straight from the interpreter instead (Interpret),
// holding one block of their trace at a time.
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

// Consumer receives a trace as column blocks (see Block), from whichever
// source produced it: a resident Capture, a MappedCapture streaming frames,
// or Interpret's window. Every timing model and activity collector
// implements exactly this one method.
type Consumer interface {
	ConsumeBlock(b *Block)
}

// ctxCheckMask sets how often the interpreter loop polls the context:
// every (ctxCheckMask+1) instructions, cheap enough to be invisible in
// profiles while keeping cancellation latency well under a millisecond.
const ctxCheckMask = 0xFFF

// interpret is the one interpreter loop. It steps c until the program halts
// or limit instructions have retired, handing every retired instruction and
// its decode-table entry to retire, and returns the number retired. The
// record is reused for every instruction, so retire must not keep either
// pointer. It fails only on cancellation and on a faulting instruction;
// what names the run in those errors. Reaching limit is not an error here:
// callers decide (benchDone, Interpret).
func interpret(ctx context.Context, c *cpu.CPU, what string, limit uint64, retire func(*cpu.Exec, *cpu.Decoded)) (uint64, error) {
	var (
		n uint64
		e cpu.Exec
	)
	for !c.Done && n < limit {
		if n&ctxCheckMask == 0 {
			select {
			case <-ctx.Done():
				return n, fmt.Errorf("trace: %s aborted after %d instructions: %w", what, n, ctx.Err())
			default:
			}
		}
		if err := c.Step(&e); err != nil {
			return n, fmt.Errorf("trace: %s: %w", what, err)
		}
		retire(&e, c.Decoded())
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
	count := func(e *cpu.Exec, _ *cpu.Decoded) {
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
