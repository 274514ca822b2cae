package diffsim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// Mismatch is one divergence between the golden interpreter and the
// compressed paths (or a violated harness invariant).
//
// Kinds: "reg" / "hilo" / "pc" / "store" / "exit" (architectural divergence),
// "ext2" / "ext3" (write-path round-trip failures), "icomp" (instruction
// recoding round-trip), "timing" (non-deterministic pipeline results),
// "sandbox" / "golden" / "timeout" / "encode" / "fetch" / "decode" /
// "syscall" (harness invariant violations — generator or program bugs, not
// compression bugs).
type Mismatch struct {
	Kind   string
	Step   uint64 // retired-instruction index at detection
	PC     uint32 // PC of the instruction that exposed it
	Detail string
}

func (m *Mismatch) String() string {
	return fmt.Sprintf("[%s] step %d pc %#08x: %s", m.Kind, m.Step, m.PC, m.Detail)
}

// Report is the outcome of checking one program.
type Report struct {
	Steps    uint64
	Mismatch *Mismatch // nil when every check passed
}

// OK reports whether the program passed all differential checks.
func (r Report) OK() bool { return r.Mismatch == nil }

// MemWindow is one allowed data-access range [Base, Base+Size).
type MemWindow struct {
	Base uint32
	Size uint32
}

// Contains reports whether the [addr, addr+width) access falls inside.
func (w MemWindow) Contains(addr uint32, width int) bool {
	end := uint64(addr) + uint64(width)
	return addr >= w.Base && end <= uint64(w.Base)+uint64(w.Size)
}

// CheckOpts bounds one differential run.
type CheckOpts struct {
	// MaxSteps caps retired instructions (0 = 1<<20). Generated programs
	// terminate by construction; hitting the cap is reported as a
	// "timeout" harness mismatch unless StopAtCap is set.
	MaxSteps uint64
	// Timing enables the pipeline-determinism pass: every model's Result
	// must be identical across a repeat run and a concurrent
	// (goroutine-per-model) run. Honoured by Check only; CheckBinary runs
	// the architectural lockstep alone.
	Timing bool
	// Entry is the start PC (0 = TextBase). Assembled user programs may
	// enter at a `main` label that is not the first text word.
	Entry uint32
	// Windows lists the allowed data-access ranges. Empty means the
	// generator default: exactly the data segment at DataBase. The
	// program-intake spot-check adds a stack window for compiled code.
	Windows []MemWindow
	// StopAtCap makes reaching MaxSteps a success instead of a "timeout"
	// mismatch — the spot-check mode used by untrusted-program intake,
	// where only a budgeted prefix of the run is cross-checked.
	StopAtCap bool
	// AllowPrints lets the shadow treat the print syscalls (print_int,
	// print_string, putc) as architectural no-ops, matching the golden
	// interpreter, instead of flagging a "syscall" harness mismatch.
	// Generated programs only ever exit; user programs may print.
	AllowPrints bool
}

func (o CheckOpts) withDefaults() CheckOpts {
	if o.MaxSteps == 0 {
		o.MaxSteps = 1 << 20
	}
	if o.Entry == 0 {
		o.Entry = TextBase
	}
	return o
}

// Check runs p through the golden interpreter and the compressed-path
// shadow machine in lockstep, cross-checking architectural state each
// retired instruction, plus the per-instruction icomp round-trip and
// (optionally) pipeline timing determinism.
func Check(p *Program, or *Oracle, opts CheckOpts) Report {
	opts = opts.withDefaults()
	words, err := p.Encode()
	if err != nil {
		return Report{Mismatch: &Mismatch{Kind: "encode", Detail: err.Error()}}
	}
	rep := CheckBinary(words, p.Data, or, opts)
	if rep.Mismatch == nil && opts.Timing {
		if m := checkTiming(p, or, opts.MaxSteps); m != nil {
			rep.Mismatch = m
		}
	}
	return rep
}

// CheckBinary is the raw-words lockstep core of Check: it runs an arbitrary
// text image (loaded at TextBase) plus data segment through the golden
// interpreter and the fully-compressed shadow machine, cross-checking
// architectural state each retired instruction. It is the entry point the
// untrusted-program intake uses to spot-check accepted submissions against
// the Ext3 shadow before they are admitted to the served suite.
func CheckBinary(words []uint32, data []byte, or *Oracle, opts CheckOpts) Report {
	opts = opts.withDefaults()
	rep := Report{}
	fail := func(kind string, step uint64, pc uint32, format string, args ...interface{}) Report {
		rep.Mismatch = &Mismatch{Kind: kind, Step: step, PC: pc, Detail: fmt.Sprintf(format, args...)}
		return rep
	}

	windows := opts.Windows
	if len(windows) == 0 {
		windows = []MemWindow{{Base: DataBase, Size: uint32(len(data))}}
	}
	inWindow := func(addr uint32, width int) bool {
		for _, w := range windows {
			if w.Contains(addr, width) {
				return true
			}
		}
		return false
	}

	m := mem.NewMemory()
	for i, w := range words {
		m.Store32(TextBase+4*uint32(i), w)
	}
	m.LoadSegment(DataBase, data)
	golden := cpu.New(m, opts.Entry, StackTop)
	sh := newShadow(or, words, data)
	sh.pc = opts.Entry
	sh.allowPrints = opts.AllowPrints

	for !golden.Done {
		if rep.Steps >= opts.MaxSteps {
			if opts.StopAtCap {
				return rep
			}
			return fail("timeout", rep.Steps, golden.PC, "exceeded %d steps (generator termination invariant violated)", opts.MaxSteps)
		}
		if sh.pc != golden.PC {
			return fail("pc", rep.Steps, golden.PC, "shadow PC %#08x, golden %#08x", sh.pc, golden.PC)
		}
		e, err := golden.Step()
		if err != nil {
			return fail("golden", rep.Steps, golden.PC, "golden interpreter error: %v", err)
		}
		// Sandbox invariant: data accesses stay inside the allowed
		// windows. Violations mean a malformed (usually over-shrunken)
		// program, not a compression bug.
		if e.MemWidth > 0 && !inWindow(e.Addr, e.MemWidth) {
			return fail("sandbox", rep.Steps, e.PC, "%d-byte access at %#08x outside data segment", e.MemWidth, e.Addr)
		}
		// Instruction-compression round trip, including the documented
		// contract that a clear extension bit makes the low stored byte
		// irrelevant (three-byte fetch).
		st := or.EncodeInst(e.Raw)
		if got := or.DecodeInst(st); got != e.Raw {
			return fail("icomp", rep.Steps, e.PC, "encode/decode %#08x -> %#08x (%s)", e.Raw, got, isa.Decode(e.Raw).Disassemble(e.PC))
		}
		if !st.Ext {
			zeroed := st
			zeroed.Word &^= 0xff
			if got := or.DecodeInst(zeroed); got != e.Raw {
				return fail("icomp", rep.Steps, e.PC, "3-byte fetch decode %#08x -> %#08x", e.Raw, got)
			}
		}

		eff, err := sh.step()
		if err != nil {
			var me *mismatchError
			if errors.As(err, &me) {
				return fail(me.kind, rep.Steps, e.PC, "%s", me.detail)
			}
			return fail("shadow", rep.Steps, e.PC, "%v", err)
		}

		// Store traffic must match value-for-value at the store width.
		if e.Inst.IsStore() || eff.width > 0 {
			mask := widthMask(e.MemWidth)
			if eff.width != e.MemWidth || eff.addr != e.Addr || eff.val&mask != e.StoreVal&mask {
				return fail("store", rep.Steps, e.PC, "shadow store %d@%#08x=%#x, golden %d@%#08x=%#x",
					eff.width, eff.addr, eff.val&mask, e.MemWidth, e.Addr, e.StoreVal&mask)
			}
		}

		// Full architected-state comparison (reads decompress the shadow's
		// Ext3 state, so a 3-bit scheme bug surfaces here).
		for r := 0; r < 32; r++ {
			sv, err := sh.read(isa.Reg(r))
			if err != nil {
				var me *mismatchError
				if errors.As(err, &me) {
					return fail(me.kind, rep.Steps, e.PC, "%s", me.detail)
				}
				return fail("ext3", rep.Steps, e.PC, "%v", err)
			}
			if sv != golden.Regs[r] {
				return fail("reg", rep.Steps, e.PC, "%s = %#08x, golden %#08x after %s",
					isa.Reg(r), sv, golden.Regs[r], e.Inst.Disassemble(e.PC))
			}
		}
		for _, h := range []struct {
			name   string
			c      creg
			golden uint32
		}{{"HI", sh.hi, golden.HI}, {"LO", sh.lo, golden.LO}} {
			sv, err := sh.readHILO(h.c, h.name)
			if err != nil {
				var me *mismatchError
				if errors.As(err, &me) {
					return fail(me.kind, rep.Steps, e.PC, "%s", me.detail)
				}
				return fail("ext3", rep.Steps, e.PC, "%v", err)
			}
			if sv != h.golden {
				return fail("hilo", rep.Steps, e.PC, "%s = %#08x, golden %#08x", h.name, sv, h.golden)
			}
		}
		rep.Steps++
	}
	if !sh.done {
		return fail("exit", rep.Steps, golden.PC, "golden exited, shadow still running at %#08x", sh.pc)
	}
	if sh.exitCode != golden.ExitCode {
		return fail("exit", rep.Steps, golden.PC, "exit code %d, golden %d", sh.exitCode, golden.ExitCode)
	}
	return rep
}

func widthMask(w int) uint32 {
	switch w {
	case 1:
		return 0xff
	case 2:
		return 0xffff
	}
	return 0xffff_ffff
}

// timingResults runs the program through one fresh instance of every
// pipeline model, for at most maxSteps instructions. Sequentially, the
// models consume one streaming interpretation (trace.Interpret) together; when concurrent is true
// the program is recorded once and each model replays the capture on its
// own goroutine, mirroring the parallel-suite execution. Results must not
// depend on that choice.
func timingResults(p *Program, or *Oracle, maxSteps uint64, concurrent bool) (map[string]pipeline.Result, error) {
	ctx := context.Background()
	golden, err := p.NewCPU()
	if err != nil {
		return nil, err
	}
	models := pipeline.NewAll()
	if concurrent {
		cp, err := trace.RecordCPU(ctx, golden, maxSteps)
		if err != nil {
			return nil, err
		}
		errs := make([]error, len(models))
		var wg sync.WaitGroup
		for i, m := range models {
			wg.Add(1)
			go func(i int, m *pipeline.Model) {
				defer wg.Done()
				errs[i] = cp.ReplayBlocks(ctx, or.Recoder, m)
			}(i, m)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return nil, err
		}
	} else {
		consumers := make([]trace.Consumer, len(models))
		for i, m := range models {
			consumers[i] = m
		}
		if _, err := trace.Interpret(ctx, golden, maxSteps, nil, or.Recoder, consumers...); err != nil {
			return nil, err
		}
	}
	out := make(map[string]pipeline.Result, len(models))
	for _, m := range models {
		out[m.Name()] = m.Result()
	}
	return out, nil
}

// checkTiming asserts pipeline determinism: a repeat sequential run and a
// concurrent goroutine-per-model run must produce bit-identical Results
// (cycles, instruction counts, and stall breakdowns) for every model.
func checkTiming(p *Program, or *Oracle, maxSteps uint64) *Mismatch {
	base, err := timingResults(p, or, maxSteps, false)
	if err != nil {
		return &Mismatch{Kind: "timing", Detail: fmt.Sprintf("baseline pass: %v", err)}
	}
	for pass, concurrent := range map[string]bool{"repeat": false, "parallel": true} {
		again, err := timingResults(p, or, maxSteps, concurrent)
		if err != nil {
			return &Mismatch{Kind: "timing", Detail: fmt.Sprintf("%s pass: %v", pass, err)}
		}
		for name, want := range base {
			got, ok := again[name]
			if !ok || !reflect.DeepEqual(got, want) {
				return &Mismatch{Kind: "timing", Detail: fmt.Sprintf(
					"%s pass: model %s diverged: %+v vs %+v", pass, name, got, want)}
			}
		}
	}
	return nil
}
