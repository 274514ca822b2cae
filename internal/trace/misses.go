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
// Block.Misses. Batch kernels read their stalls and fills from it instead
// of simulating private copies of the same caches.
//
// Lifecycle. A replayer starts without a stream. A batch replay that finds
// none builds one inline over the PC, address and store columns it is
// already emitting, and publishes it only once the replay completes: a
// cancelled or failed replay publishes nothing, and concurrent first
// replays each build their own (identical) copy, the first finisher's
// winning. Every later replay reads the published stream.
package trace

import (
	"sync/atomic"

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
// mem.Hierarchy.Fetch and Data return; under the default geometry they are
// at most TLB + L2 + memory = 66 cycles, so a byte holds them.
type MissEvent struct {
	Row   uint32 // trace-global row index
	IC    uint8  // fetch stall cycles beyond the pipelined L1I hit
	DC    uint8  // data stall cycles beyond the pipelined L1D hit
	Flags uint8  // MissIFill | MissDFill | MissDWriteback
}

// missEventBytes is the resident size of one MissEvent.
const missEventBytes = 8

// missMemo holds a replayer's published miss stream. Both capture tiers
// embed one.
type missMemo struct {
	p atomic.Pointer[[]MissEvent]
}

// stream returns the published stream, or nil before the first completed
// batch replay.
func (mm *missMemo) stream() []MissEvent {
	if p := mm.p.Load(); p != nil {
		return *p
	}
	return nil
}

// sizeBytes is the published stream's resident footprint.
func (mm *missMemo) sizeBytes() int { return len(mm.stream()) * missEventBytes }

// cursor starts one replay's walk over the stream: over the published one
// when it exists, otherwise over a fresh hierarchy that builds it. Replays
// keep the cursor on their stack.
func (mm *missMemo) cursor() missCursor {
	if ev := mm.stream(); ev != nil {
		return missCursor{ev: ev}
	}
	return missCursor{
		ev:   make([]MissEvent, 0, 64), // never nil: see Block.Misses
		hier: mem.NewHierarchy(mem.DefaultHierarchyConfig()),
	}
}

// publish installs the stream a completed replay built, trimmed of append
// slack. A replay that read an already published stream, or lost the race
// to another first replay, changes nothing.
func (mm *missMemo) publish(c *missCursor) {
	if c.hier != nil && mm.p.Load() == nil {
		ev := make([]MissEvent, len(c.ev))
		copy(ev, c.ev)
		mm.p.CompareAndSwap(nil, &ev)
	}
}

// missCursor is one replay's position in the miss stream. Replays visit
// rows in order, so the events of each decoded chunk are the next run of
// the stream.
type missCursor struct {
	ev   []MissEvent
	pos  int
	hier *mem.Hierarchy // non-nil while this replay builds the stream
}

// next returns the events of rows [start, start+len(slot)), first
// simulating those rows through the hierarchy when this replay builds the
// stream. The result is capped so a consumer cannot append into it.
func (c *missCursor) next(statics []Static, start int, slot, pc, srcA []uint32) []MissEvent {
	if h := c.hier; h != nil {
		for i, sw := range slot {
			st := &statics[sw&SlotMask]
			fills := h.InstFills
			ic := h.Fetch(pc[i])
			var flags uint8
			if h.InstFills != fills {
				flags |= MissIFill
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
				c.ev = append(c.ev, MissEvent{Row: uint32(start + i), IC: uint8(ic), DC: uint8(dc), Flags: flags})
			}
		}
	}
	end := start + len(slot)
	lo := c.pos
	for c.pos < len(c.ev) && int(c.ev[c.pos].Row) < end {
		c.pos++
	}
	return c.ev[lo:c.pos:c.pos]
}
