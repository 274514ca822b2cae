package workload

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/cpu"
	"repro/internal/diffsim"
	"repro/internal/faultinject"
	"repro/internal/mem"
)

// probationOutcome is what a survived probation observed.
type probationOutcome struct {
	insts     uint64
	checksum  uint32
	outBytes  int
	spotSteps uint64
}

// ctxCheckStride is how often the probation loop polls the deadline; cheap
// enough to leave the hot loop tight, frequent enough that a wall-clock
// overrun is caught within microseconds of real work.
const ctxCheckStride = 4096

var (
	oracleOnce sync.Once
	oracle     *diffsim.Oracle
)

func spotOracle() *diffsim.Oracle {
	oracleOnce.Do(func() { oracle = diffsim.DefaultOracle() })
	return oracle
}

// sandboxWindows returns the allowed data-access ranges for a submitted
// program: its data segment plus a bounded stack below the stack top.
func sandboxWindows(p *asm.Program, opts Options) []diffsim.MemWindow {
	return []diffsim.MemWindow{
		{Base: p.DataBase, Size: uint32(len(p.Data))},
		{Base: asm.DefaultStackTop - opts.StackBytes, Size: opts.StackBytes},
	}
}

// probation runs wall layers 4–5: the budgeted execution on the golden
// interpreter, then the lockstep spot-check against the compressed-path
// shadow machine.
//
// Error classes: *RejectedError for deterministic source properties (budget
// exhaustion, sandbox violation, interpreter-visible faults, nonzero exit),
// *QuarantinedError (without ID — the caller stamps it) for harness faults
// (contained panics, lockstep divergence), and transient context/injection
// errors passed through untouched so infrastructure trouble is not pinned
// on the program.
func probation(ctx context.Context, prog *asm.Program, opts Options) (out probationOutcome, err error) {
	defer func() {
		if v := recover(); v != nil {
			// A panic inside the interpreter (or injected at the probation
			// point) is a harness fault: contain it, quarantine the program.
			err = &QuarantinedError{Reason: fmt.Sprintf("probation panic: %v", v)}
		}
	}()
	if ferr := opts.Faults.Fire(ctx, faultinject.PointProbation); ferr != nil {
		return out, ferr
	}

	ctx, cancel := context.WithTimeout(ctx, opts.Deadline)
	defer cancel()

	reject := func(format string, args ...interface{}) error {
		return &RejectedError{Check: "probation", Reason: fmt.Sprintf(format, args...)}
	}

	m := mem.NewMemory()
	prog.LoadInto(m)
	c := cpu.New(m, prog.Entry, asm.DefaultStackTop)
	textEnd := prog.TextBase + 4*uint32(len(prog.Text))
	windows := sandboxWindows(prog, opts)
	inWindow := func(addr uint32, width int) bool {
		for _, w := range windows {
			if w.Contains(addr, width) {
				return true
			}
		}
		return false
	}

	var e cpu.Exec
	for !c.Done {
		if out.insts >= opts.MaxInsts {
			return out, reject("budget exhausted: %d instructions without halting", opts.MaxInsts)
		}
		if out.insts%ctxCheckStride == 0 {
			if cerr := ctx.Err(); cerr != nil {
				if ctx.Err() == context.DeadlineExceeded {
					return out, reject("deadline exceeded after %d instructions (%v wall clock)", out.insts, opts.Deadline)
				}
				return out, cerr
			}
		}
		// Sparse memory reads as zero, so a PC that escapes the text image
		// would nop-sled through unmapped pages until the budget burned;
		// catch it the step it happens.
		if c.PC < prog.TextBase || c.PC >= textEnd {
			return out, reject("PC %#x left the text segment [%#x, %#x) after %d instructions",
				c.PC, prog.TextBase, textEnd, out.insts)
		}
		if serr := c.Step(&e); serr != nil {
			return out, reject("step %d: %v", out.insts, serr)
		}
		if e.MemWidth > 0 && !inWindow(e.Addr, e.MemWidth) {
			return out, reject("step %d: %d-byte access at %#08x outside the sandbox (data segment + %d-byte stack)",
				out.insts, e.MemWidth, e.Addr, opts.StackBytes)
		}
		if c.Output.Len() > opts.MaxOutputBytes {
			return out, reject("step %d: output exceeded %d bytes", out.insts, opts.MaxOutputBytes)
		}
		out.insts++
	}
	if c.ExitCode != 0 {
		return out, reject("exit code %d (want 0)", c.ExitCode)
	}
	out.checksum = c.Regs[bench.ChecksumReg]
	out.outBytes = c.Output.Len()

	// Spot-check: replay a budgeted prefix in lockstep against the fully
	// compressed shadow machine. A divergence here is not the submitter's
	// bug to fix by resubmitting — quarantine it for a human.
	steps := opts.SpotCheckSteps
	if steps > out.insts {
		steps = out.insts
	}
	rep := diffsim.CheckBinary(prog.Text, prog.Data, spotOracle(), diffsim.CheckOpts{
		MaxSteps:    steps,
		StopAtCap:   true,
		Entry:       prog.Entry,
		Windows:     windows,
		AllowPrints: true,
	})
	if !rep.OK() {
		return out, &QuarantinedError{Reason: fmt.Sprintf("lockstep spot-check diverged: %v", rep.Mismatch)}
	}
	out.spotSteps = rep.Steps
	return out, nil
}
