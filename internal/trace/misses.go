// Miss stream: the memory hierarchy's outcome, computed once per capture.
//
// Every timing model and every activity collector shares the paper's §3
// memory hierarchy (mem.DefaultHierarchyConfig) and drives it in the same
// order: one instruction fetch at the row's PC, then one data access for a
// memory row. The models are in-order and stall fetch on unresolved control
// flow, so no wrong-path access ever reaches the caches. The cache and TLB
// outcome of each row is therefore a property of the trace, not of the
// consumer reading it. A replay simulates that hierarchy once, keeps only
// the rows whose outcome is not a plain hit (over 99.9% of the suite's rows
// hit), and hands each block its slice of this sparse stream as
// Block.Misses. Consumer kernels read their stalls and fills from it
// instead of simulating private copies of the same caches.
//
// Lifecycle. A capture starts without a stream. A replay that finds none
// builds one inline over the PC, address and store columns it is
// already emitting, and publishes it only once the replay completes: a
// cancelled or failed replay publishes nothing, and concurrent first
// replays each build their own (identical) copy, the first finisher's
// winning. Every later replay reads the published stream. Interpret
// builds each window's events as it emits the window and keeps none.
package trace

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"unsafe"

	"repro/internal/mem"
)

// MissEvent flags.
const (
	MissIFill      = 1 << iota // the fetch filled an L1I line
	MissDFill                  // the data access filled an L1D line
	MissDWriteback             // that L1D fill evicted a dirty victim
)

// MissEvent is one row whose hierarchy outcome is not a plain hit: some
// stall cycles, a line fill, or a writeback. The stalls are the cycles
// mem.Hierarchy.Fetch and Data return: at most TLB + L2 + memory cycles,
// 66 under the default geometry; NewMissBuilder rejects a geometry whose
// worst case does not fit the fields.
type MissEvent struct {
	Row   uint32 // trace-global row index
	IC    uint16 // fetch stall cycles beyond the pipelined L1I hit
	DC    uint16 // data stall cycles beyond the pipelined L1D hit
	Flags uint8  // MissIFill | MissDFill | MissDWriteback
}

// missEventBytes is the resident size of one MissEvent.
const missEventBytes = int(unsafe.Sizeof(MissEvent{}))

// MissBuilder simulates one memory hierarchy over a trace's rows, visited
// in order, and reports the rows whose outcome is not a plain hit. The
// replay engines run one over the paper's hierarchy; a consumer modelling
// another geometry (pipeline.Model.SetHierarchy) runs its own per block.
type MissBuilder struct {
	hier *mem.Hierarchy
	ev   []MissEvent

	// lineShift and lastLine skip the fetch of a row whose PC is in the
	// line fetched last. Only fetches touch the L1I and the ITLB, and a
	// hit reaches no further, so that line is still the most recent of
	// both: fetching it again would hit and change neither's LRU order.
	lineShift uint
	lastLine  uint32
}

// NewMissBuilder returns a builder over a cold hierarchy of geometry cfg.
// It panics if cfg's worst-case stall (TLB miss + L2 + memory) does not fit
// a MissEvent.
func NewMissBuilder(cfg mem.HierarchyConfig) *MissBuilder {
	if worst := cfg.TLBMissCycles + cfg.L2HitCycles + cfg.MemCycles; worst > math.MaxUint16 {
		panic(fmt.Sprintf("trace: hierarchy worst-case stall %d cycles exceeds %d", worst, math.MaxUint16))
	}
	return &MissBuilder{
		hier:      mem.NewHierarchy(cfg),
		ev:        make([]MissEvent, 0, 64), // never nil: see Block.Misses
		lineShift: uint(min(bits.Len(uint(cfg.L1I.LineBytes))-1, mem.PageShift)),
		lastLine:  math.MaxUint32,
	}
}

// Block simulates blk's rows and returns their events in row order. The
// slice is reused by the next call.
func (mb *MissBuilder) Block(blk *Block) []MissEvent {
	mb.ev = mb.ev[:0]
	mb.simulate(blk.Statics, blk.Start, blk.Slot, blk.PC, blk.SrcA)
	return mb.ev[:len(mb.ev):len(mb.ev)]
}

// simulate runs rows [start, start+len(slot)) through the hierarchy — one
// instruction fetch, then the data access of a memory row — appending the
// events of the rows that do not plainly hit.
func (mb *MissBuilder) simulate(statics []Static, start int, slot, pc, srcA []uint32) {
	h := mb.hier
	for i, sw := range slot {
		st := &statics[sw&SlotMask]
		ic := 0
		var flags uint8
		if line := pc[i] >> mb.lineShift; line != mb.lastLine {
			fills := h.InstFills
			ic = h.Fetch(pc[i])
			if h.InstFills != fills {
				flags |= MissIFill
			}
			mb.lastLine = line
		}
		dc := 0
		if st.MemWidth > 0 {
			fills, wbs := h.DataFills, h.L1D.Writeback
			dc = h.Data(srcA[i]+st.Simm, st.IsStore)
			if h.DataFills != fills {
				flags |= MissDFill
			}
			if h.L1D.Writeback != wbs {
				flags |= MissDWriteback
			}
		}
		if ic != 0 || dc != 0 || flags != 0 {
			mb.ev = append(mb.ev, MissEvent{Row: uint32(start + i), IC: uint16(ic), DC: uint16(dc), Flags: flags})
		}
	}
}

// missMemo holds a replayer's published miss stream. Both capture tiers
// embed one.
type missMemo struct {
	p atomic.Pointer[[]MissEvent]
}

// stream returns the published stream, or nil before the first completed
// replay.
func (mm *missMemo) stream() []MissEvent {
	if p := mm.p.Load(); p != nil {
		return *p
	}
	return nil
}

// sizeBytes is the published stream's resident footprint.
func (mm *missMemo) sizeBytes() int { return len(mm.stream()) * missEventBytes }

// cursor starts one replay's walk over the stream: over the published one
// when it exists, otherwise over a fresh builder that records it. Replays
// keep the cursor on their stack.
func (mm *missMemo) cursor() missCursor {
	if ev := mm.stream(); ev != nil {
		return missCursor{ev: ev}
	}
	return missCursor{build: NewMissBuilder(mem.DefaultHierarchyConfig())}
}

// publish installs the stream a completed replay built, trimmed of append
// slack. A replay that read an already published stream, or lost the race
// to another first replay, changes nothing.
func (mm *missMemo) publish(c *missCursor) {
	if c.build != nil && mm.p.Load() == nil {
		ev := make([]MissEvent, len(c.ev))
		copy(ev, c.ev)
		mm.p.CompareAndSwap(nil, &ev)
	}
}

// missCursor is one replay's position in the miss stream. Replays visit
// rows in order, so the events of each chunk are the next run of the
// stream.
type missCursor struct {
	ev    []MissEvent
	pos   int
	build *MissBuilder // non-nil while this replay records the stream
}

// next returns the events of chunk ch, whose row 0 is trace row start,
// first simulating its rows when this replay records the stream. The
// result is capped so a consumer cannot append into it.
func (c *missCursor) next(statics []Static, start int, ch chunk) []MissEvent {
	if c.build != nil {
		c.build.simulate(statics, start, ch[0], ch[1], ch[2])
		c.ev = c.build.ev
	}
	end := start + len(ch[0])
	lo := c.pos
	for c.pos < len(c.ev) && int(c.ev[c.pos].Row) < end {
		c.pos++
	}
	return c.ev[lo:c.pos:c.pos]
}
