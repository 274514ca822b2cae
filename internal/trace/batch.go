// Block replay: column-block fan-out of a trace.
//
// Consumers receive a trace as column blocks: contiguous slices of the six
// u32 capture columns plus the per-block statics annotation table, so a
// consumer runs branch-free kernels over whole columns and amortizes its
// per-instruction overheads to (near) zero. No per-instruction Event is
// ever built on this path; Block.EventAt reconstructs one on demand for
// reference oracles and tests.
//
// Memory ordering. Memory-reading consumers (the activity collectors read
// cache-line contents at fill time) must observe each row's store before
// the row itself and no later store. A block of rows spanning a store
// cannot simply be fanned out after applying all its stores — a consumer
// filling a cache line at row i must not observe a store from row j > i.
// emitSpans therefore splits each block at store rows: rows [lo, i) are
// emitted, store i is applied, and the next span starts at i (the store
// row itself is emitted in the following span, after its own store has
// landed — the state-then-consume order of stepping the interpreter). With
// a nil memory image no splitting is needed and blocks are emitted whole.
package trace

import (
	"context"
	"fmt"

	"repro/internal/icomp"
	"repro/internal/mem"
)

// BlockRows is the block span size: large enough to amortize
// per-block overhead, small enough that a block's columns stay cache
// resident while consumers sweep them.
const BlockRows = 4096

// PackedSig is one entry of the packed significance column. The accessors
// unpack the ten recoder-independent quantities (same values as the
// corresponding Event fields).
type PackedSig uint32

// SrcBytesA returns the significant byte count of source A (0 if not read).
func (s PackedSig) SrcBytesA() int { return int(s >> sigSrcBytesAShift & 7) }

// SrcBytesB returns the significant byte count of source B (0 if not read).
func (s PackedSig) SrcBytesB() int { return int(s >> sigSrcBytesBShift & 7) }

// SrcHalvesA returns the significant halfword count of source A.
func (s PackedSig) SrcHalvesA() int { return int(s >> sigSrcHalvesAShift & 3) }

// SrcHalvesB returns the significant halfword count of source B.
func (s PackedSig) SrcHalvesB() int { return int(s >> sigSrcHalvesBShift & 3) }

// ALUOps returns the significance-ALU byte operation count.
func (s PackedSig) ALUOps() int { return int(s >> sigALUOpsShift & 15) }

// ALUHalfOps returns the significance-ALU halfword operation count.
func (s PackedSig) ALUHalfOps() int { return int(s >> sigALUHalfShift & 7) }

// MemBytes returns the significant bytes moved by the data access.
func (s PackedSig) MemBytes() int { return int(s >> sigMemBytesShift & 7) }

// MemHalves returns the significant halfwords moved by the data access.
func (s PackedSig) MemHalves() int { return int(s >> sigMemHalvesShift & 3) }

// WBBytes returns the significant bytes of the written-back result.
func (s PackedSig) WBBytes() int { return int(s >> sigWBBytesShift & 7) }

// WBHalves returns the significant halfwords of the written-back result.
func (s PackedSig) WBHalves() int { return int(s >> sigWBHalvesShift & 3) }

// MaxSrcBytes mirrors Event.MaxSrcBytes: the larger significant-byte count
// of the two sources, floored at 1.
func (s PackedSig) MaxSrcBytes() int {
	a, b := s.SrcBytesA(), s.SrcBytesB()
	if b > a {
		a = b
	}
	if a == 0 {
		a = 1
	}
	return a
}

// MaxSrcHalves mirrors Event.MaxSrcHalves.
func (s PackedSig) MaxSrcHalves() int {
	a, b := s.SrcHalvesA(), s.SrcHalvesB()
	if b > a {
		a = b
	}
	if a == 0 {
		a = 1
	}
	return a
}

// Block is one contiguous span of a trace's columns, handed to every
// Consumer. The column slices alias the capture's
// storage and are valid only for the duration of the ConsumeBlock call;
// consumers must not retain or mutate them.
//
// Row i of the block is instruction Start+i of the trace. Slot[i]'s low bits
// (SlotMask) index Statics and IFB; its top bit (TakenBit) is the branch
// outcome. Sig[i] is a PackedSig. The next-PC of row i is PC[i+1] within the
// block, or EndNextPC for the final row.
type Block struct {
	// Start is the trace-global index of row 0.
	Start int

	// The six capture columns, one entry per row.
	Slot   []uint32
	PC     []uint32
	SrcA   []uint32
	SrcB   []uint32
	Result []uint32
	Sig    []uint32

	// EndNextPC is the NextPC of the block's final row (the PC of the first
	// instruction after the block, or the trace's final NextPC).
	EndNextPC uint32

	// Statics is the capture's annotation table, indexed by Slot[i]&SlotMask.
	Statics []Static

	// IFB is the per-statics-slot compressed fetch size (3 or 4) under the
	// replay's recoder, indexed like Statics.
	IFB []uint8

	// Misses lists, in row order, the block's rows whose outcome under
	// the default memory hierarchy is not a plain hit (see misses.go).
	// Rows not listed hit everywhere. Every source fills it (an empty,
	// non-nil slice when all rows hit).
	Misses []MissEvent
}

// Len returns the number of rows in the block.
func (b *Block) Len() int { return len(b.Slot) }

// EventAt reconstructs row i of the block into *ev: the instruction as the
// interpreter retired it plus its annotation under the block's recoder. The
// reused *ev pattern (instead of returning an Event) keeps the 200-byte
// struct out of per-row copies.
func (b *Block) EventAt(i int, ev *Event) {
	sw := b.Slot[i]
	st := &b.Statics[sw&SlotMask]
	*ev = Event{}
	e := &ev.Exec
	e.PC = b.PC[i]
	e.Raw = st.Inst.Raw
	e.Inst = st.Inst
	e.SrcA, e.ReadsA = b.SrcA[i], st.ReadsA
	e.SrcB, e.ReadsB = b.SrcB[i], st.ReadsB
	if st.HasDest {
		e.Dest, e.Result, e.HasDest = st.Dest, b.Result[i], true
	}
	e.Taken = sw&TakenBit != 0
	if i+1 < len(b.PC) {
		e.NextPC = b.PC[i+1]
	} else {
		e.NextPC = b.EndNextPC
	}
	if st.MemWidth > 0 {
		e.Addr = e.SrcA + st.Simm
		e.MemWidth = int(st.MemWidth)
		if st.IsStore {
			e.StoreVal = e.SrcB
		} else {
			e.Loaded = b.Result[i]
		}
	}
	s := PackedSig(b.Sig[i])
	ev.IFBytes = int(b.IFB[sw&SlotMask])
	ev.SrcBytesA = s.SrcBytesA()
	ev.SrcBytesB = s.SrcBytesB()
	ev.SrcHalvesA = s.SrcHalvesA()
	ev.SrcHalvesB = s.SrcHalvesB()
	ev.ALUOps = s.ALUOps()
	ev.ALUHalfOps = s.ALUHalfOps()
	ev.MemBytes = s.MemBytes()
	ev.MemHalves = s.MemHalves()
	ev.WBBytes = s.WBBytes()
	ev.WBHalves = s.WBHalves()
}

// ReplayBlocks emits the capture without a memory image: the recorded
// stores are not applied anywhere, which is sufficient for consumers that
// never read program memory (the pipeline timing models). Consumers that
// read memory (activity collectors) need ReplayBlocksOn with the
// benchmark's initial image (NewMemory).
func (cp *Capture) ReplayBlocks(ctx context.Context, rc *icomp.Recoder, consumers ...Consumer) error {
	return cp.ReplayBlocksOn(ctx, nil, rc, consumers...)
}

// ReplayBlocksOn fans the capture out to the consumers, one block per
// chunk of up to BlockRows rows, read in place. With a non-nil memory
// image (the benchmark's initial image, NewMemory) the blocks are
// additionally split at store rows so every consumer observes memory
// exactly as the interpreter left it (see the package comment on memory
// ordering).
func (cp *Capture) ReplayBlocksOn(ctx context.Context, m *mem.Memory, rc *icomp.Recoder, consumers ...Consumer) error {
	ifb := cp.ifBytes(rc)
	blk := Block{Statics: cp.statics, IFB: ifb}
	misses := cp.misses.cursor()
	for c := range cp.chunks {
		base := c * BlockRows
		select {
		case <-ctx.Done():
			return fmt.Errorf("trace: replaying %s aborted after %d instructions: %w", cp.bench.Name, base, ctx.Err())
		default:
		}
		ch := cp.chunkAt(c)
		endNextPC := cp.lastNextPC
		if c+1 < len(cp.chunks) {
			endNextPC = cp.chunks[c+1][1][0]
		}
		emitSpans(&blk, m, consumers, base, ch, endNextPC, misses.next(cp.statics, base, ch))
	}
	cp.misses.publish(&misses)
	return nil
}

// emitSpans fans one chunk of decoded columns out to the consumers,
// splitting at store rows when a memory image is present: rows [lo, i) are
// emitted, store i is applied, and the next span starts at i — the store
// row is observed only after its store has landed, and before any later
// one. Both sources' replays (ReplayBlocksOn and the streaming frame
// replayer) and Interpret's window share this, so their memory ordering
// cannot diverge. start is the trace-global index of the chunk's row 0;
// endNextPC is the NextPC of its final row; misses are the miss-stream
// events of its rows, sliced per emitted block.
// blk carries the Statics/IFB annotation tables and is reused across calls.
func emitSpans(blk *Block, m *mem.Memory, consumers []Consumer, start int,
	ch chunk, endNextPC uint32, misses []MissEvent) {
	slot, pc, srcA, srcB := ch[0], ch[1], ch[2], ch[3]
	n := len(slot)
	emit := func(lo, hi int) {
		if lo >= hi {
			return
		}
		k := 0
		for k < len(misses) && int(misses[k].Row) < start+hi {
			k++
		}
		blk.Misses, misses = misses[:k:k], misses[k:]
		blk.Start = start + lo
		blk.Slot = slot[lo:hi]
		blk.PC = pc[lo:hi]
		blk.SrcA = srcA[lo:hi]
		blk.SrcB = srcB[lo:hi]
		blk.Result = ch[4][lo:hi]
		blk.Sig = ch[5][lo:hi]
		if hi < n {
			blk.EndNextPC = pc[hi]
		} else {
			blk.EndNextPC = endNextPC
		}
		for _, c := range consumers {
			c.ConsumeBlock(blk)
		}
	}
	if m == nil {
		emit(0, n)
		return
	}
	lo := 0
	for i := 0; i < n; i++ {
		st := &blk.Statics[slot[i]&SlotMask]
		if !st.IsStore {
			continue
		}
		emit(lo, i)
		addr := srcA[i] + st.Simm
		switch st.MemWidth {
		case 1:
			m.Store8(addr, byte(srcB[i]))
		case 2:
			m.Store16(addr, uint16(srcB[i]))
		default:
			m.Store32(addr, srcB[i])
		}
		lo = i
	}
	emit(lo, n)
}
