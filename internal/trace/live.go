// Live interpretation: the interpreter as the third block source.
//
// A Live source runs the benchmark on the functional interpreter and hands
// its trace to consumers exactly as the two capture tiers do, in column
// blocks of up to BlockRows rows. The interpreter loop is the one
// CaptureRun records with; here it records into a single reusable window
// (a Capture whose columns are emptied after every block) instead of the
// whole trace, so a live pass holds O(BlockRows) rows whatever the trace
// length. The statics table and its fetch-size table grow as new
// instruction words appear. Each full window goes out through emitSpans
// over the caller's memory image, as a decoded SIGCAP02 frame does, with
// its miss events from a private MissBuilder that is never published.
//
// Live replay is therefore bit-identical to replaying a capture of the
// same benchmark (TestStreamReplayIdentical), and it is how callers that hold
// no capture run a benchmark: they replay a Live source.
package trace

import (
	"context"

	"repro/internal/bench"
	"repro/internal/cpu"
	"repro/internal/icomp"
	"repro/internal/mem"
)

// Live is a benchmark's trace produced by interpretation on every replay.
// It holds nothing between replays; each one re-runs the program. Replays
// are independent and may run concurrently.
type Live struct {
	b bench.Benchmark
}

// NewLive returns the live source for b.
func NewLive(b bench.Benchmark) *Live { return &Live{b: b} }

// Bench returns the benchmark the source interprets.
func (l *Live) Bench() bench.Benchmark { return l.b }

// SizeBytes is zero: a live source retains nothing between replays.
func (l *Live) SizeBytes() int { return 0 }

// NewMemory builds the benchmark's initial memory image.
func (l *Live) NewMemory() (*mem.Memory, error) {
	c, err := l.b.NewCPU()
	if err != nil {
		return nil, err
	}
	return c.Mem, nil
}

// ClearMemos does nothing: a live source keeps no per-recoder state.
func (l *Live) ClearMemos() {}

// ReplayBlocks interprets the benchmark and emits its blocks without a
// memory image (enough for consumers that never read program memory).
func (l *Live) ReplayBlocks(ctx context.Context, rc *icomp.Recoder, consumers ...Consumer) error {
	return l.ReplayBlocksOn(ctx, nil, rc, consumers...)
}

// ReplayBlocksOn interprets the benchmark and emits its blocks over m, the
// benchmark's initial image (NewMemory) or nil; see Capture.ReplayBlocksOn
// for the memory-ordering contract. It fails as CaptureRun does on
// cancellation, a runaway past b.MaxInsts, or a checksum mismatch.
func (l *Live) ReplayBlocksOn(ctx context.Context, m *mem.Memory, rc *icomp.Recoder, consumers ...Consumer) error {
	c, err := l.b.NewCPU()
	if err != nil {
		return err
	}
	if _, err := stream(ctx, c, l.b.Name, l.b.MaxInsts, m, rc, consumers); err != nil {
		return err
	}
	return benchDone(c, l.b)
}

// Interpret runs a program that is not a registered benchmark: it steps c
// until it halts or limit instructions have retired, emitting the trace to
// the consumers over m (an image of c's initial memory, or nil), and
// returns the number of instructions retired. Reaching limit is not an
// error; a caller that requires completion checks c.Done.
func Interpret(ctx context.Context, c *cpu.CPU, limit uint64, m *mem.Memory, rc *icomp.Recoder, consumers ...Consumer) (uint64, error) {
	return stream(ctx, c, "program", limit, m, rc, consumers)
}

// RecordCPU records up to limit instructions of c (fewer if it halts first)
// into a finalized Capture, for programs that are not registered benchmarks.
// The capture's Bench is the zero Benchmark, so it replays without a memory
// image (ReplayBlocks).
func RecordCPU(ctx context.Context, c *cpu.CPU, limit uint64) (*Capture, error) {
	return recordRun(ctx, c, bench.Benchmark{}, "program", limit, nil)
}

// stream is the live engine behind Live and Interpret: the interpreter
// loop records into one BlockRows window, and every full window (and the
// final partial one) is emitted and emptied.
func stream(ctx context.Context, c *cpu.CPU, what string, limit uint64, m *mem.Memory,
	rc *icomp.Recoder, consumers []Consumer) (uint64, error) {
	win := NewCapture(bench.Benchmark{})
	win.grow(BlockRows)
	misses := NewMissBuilder(mem.DefaultHierarchyConfig())
	var (
		blk  Block
		ifb  []uint8
		base int
	)
	flush := func() {
		for i := len(ifb); i < len(win.statics); i++ {
			ifb = append(ifb, uint8(rc.FetchBytes(win.statics[i].Inst.Raw)))
		}
		blk.Statics, blk.IFB = win.statics, ifb
		misses.ev = misses.ev[:0]
		misses.simulate(win.statics, base, win.slot, win.pc, win.srcA)
		emitSpans(&blk, m, consumers, base, win.slot, win.pc, win.srcA, win.srcB,
			win.result, win.sig, win.lastNextPC, misses.ev)
		base += len(win.slot)
		win.truncate()
	}
	n, err := interpret(ctx, c, what, limit, func(e *cpu.Exec) {
		win.record(e)
		if len(win.slot) == BlockRows {
			flush()
		}
	})
	if err != nil {
		return n, err
	}
	if len(win.slot) > 0 {
		flush()
	}
	return n, nil
}
