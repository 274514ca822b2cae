// Streaming interpretation for programs that are not registered
// benchmarks.
//
// Interpret runs a program on the functional interpreter and hands its
// trace to consumers exactly as the two capture tiers do, in column blocks
// of up to BlockRows rows. The interpreter loop is the one CaptureRun
// records with; here it records into a single reusable window (a Capture
// whose one chunk is emptied after every block) instead of the whole trace,
// so a pass holds O(BlockRows) rows however long the program runs — a
// runaway program under a large instruction cap costs time, not memory.
// The statics table and its fetch-size table grow as new instruction words
// appear. Each full window goes out through emitSpans over the caller's
// memory image, as a decoded SIGCAP02 frame does, with its miss events from
// a private MissBuilder that is never published, so a pass is
// bit-identical to replaying a capture of the same run.
package trace

import (
	"context"

	"repro/internal/bench"
	"repro/internal/cpu"
	"repro/internal/icomp"
	"repro/internal/mem"
)

// Interpret runs a program that is not a registered benchmark: it steps c
// until it halts or limit instructions have retired, emitting the trace to
// the consumers over m (an image of c's initial memory, or nil), and
// returns the number of instructions retired. Reaching limit is not an
// error; a caller that requires completion checks c.Done.
func Interpret(ctx context.Context, c *cpu.CPU, limit uint64, m *mem.Memory, rc *icomp.Recoder, consumers ...Consumer) (uint64, error) {
	win := NewCapture(bench.Benchmark{})
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
		ch := win.chunkAt(0)
		misses.ev = misses.ev[:0]
		misses.simulate(win.statics, base, ch[0], ch[1], ch[2])
		emitSpans(&blk, m, consumers, base, ch, win.lastNextPC, misses.ev)
		base += win.rows
		win.rows = 0 // the chunk stays and is written over
	}
	n, err := interpret(ctx, c, "program", limit, func(e *cpu.Exec, d *cpu.Decoded) {
		win.record(e, d)
		if win.rows == BlockRows {
			flush()
		}
	})
	if err != nil {
		return n, err
	}
	if win.rows > 0 {
		flush()
	}
	return n, nil
}

// RecordCPU records up to limit instructions of c (fewer if it halts first)
// into a complete Capture, for programs that are not registered benchmarks.
// The capture's Bench is the zero Benchmark, so it replays without a memory
// image (ReplayBlocks).
func RecordCPU(ctx context.Context, c *cpu.CPU, limit uint64) (*Capture, error) {
	return recordRun(ctx, c, bench.Benchmark{}, "program", limit, nil)
}
