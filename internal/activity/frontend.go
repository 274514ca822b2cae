// FrontendStats tallies the compressed-fetch frontend opportunity profile:
// how much of the dynamic stream is 3-byte recoded, how many adjacent
// instruction pairs a dual-issue-when-compressed decoder could accept, and
// how often control transfers break the sequential fetch run.
//
// The pair tally is a static opportunity count over the trace — greedy,
// non-overlapping, using the same admission rules as the pipeline's
// dual-issue frontend (both instructions 3-byte, at most one memory op, no
// intra-pair RAW dependence) but without the timing constraints. The
// pipeline's FetchUnitStats reports pairs actually achieved; the gap
// between the two is fetch-bandwidth and scheduling loss.
package activity

import (
	"repro/internal/isa"
	"repro/internal/trace"
)

// FrontendStats is a mergeable per-suite collector. The exported fields are
// pure sums; the unexported fields are intra-benchmark adjacency state and
// deliberately excluded from Merge/State — collectors are fed one benchmark
// each, and instruction adjacency does not span benchmarks.
type FrontendStats struct {
	Insts      uint64 // instructions observed
	Bytes      uint64 // recoded fetch bytes
	Compressed uint64 // 3-byte instructions
	Pairs      uint64 // greedy non-overlapping dual-issue opportunities
	Redirects  uint64 // control transfers (fetch-run breaks)

	prevOK      bool // previous instruction is an unpaired 3-byte candidate
	prevMem     bool
	prevHasDest bool
	prevDest    isa.Reg
}

// NewFrontendStats returns an empty tally.
func NewFrontendStats() *FrontendStats { return &FrontendStats{} }

// ConsumeBlock implements trace.Consumer.
func (f *FrontendStats) ConsumeBlock(b *trace.Block) {
	for i := range b.Slot {
		st := &b.Statics[b.Slot[i]&trace.SlotMask]
		f.consume(st.Inst, int(b.IFB[b.Slot[i]&trace.SlotMask]),
			st.ReadsA, st.ReadsB, st.HasDest, st.Dest)
	}
}

func (f *FrontendStats) consume(inst isa.Inst, ifBytes int, readsA, readsB, hasDest bool, dest isa.Reg) {
	f.Insts++
	f.Bytes += uint64(ifBytes)
	compressed := ifBytes == 3
	if compressed {
		f.Compressed++
	}
	paired := false
	if f.prevOK && compressed && !(f.prevMem && inst.IsMem()) {
		raw := f.prevHasDest && f.prevDest != 0 &&
			((readsA && inst.Rs == f.prevDest) || (readsB && inst.Rt == f.prevDest))
		if !raw {
			f.Pairs++
			paired = true
		}
	}
	// The pairing decision precedes the run break, so a control transfer
	// may ride as the second instruction of a pair — but nothing pairs
	// across it.
	if inst.IsControl() {
		f.Redirects++
		f.prevOK = false
		return
	}
	f.prevOK = compressed && !paired
	f.prevMem = inst.IsMem()
	f.prevHasDest = hasDest
	f.prevDest = dest
}

// EndRun clears the adjacency state at a benchmark boundary. A shared
// collector fed benchmarks back-to-back must not pair the last instruction
// of one benchmark with the first of the next, or its tally would diverge
// from per-benchmark collectors merged afterwards — the suite evaluation
// runs both ways and asserts bit-identity.
func (f *FrontendStats) EndRun() {
	f.prevOK, f.prevMem, f.prevHasDest, f.prevDest = false, false, false, 0
}

// Merge folds other's tallies into f (order-independent sums over the
// exported counts; adjacency state does not travel).
func (f *FrontendStats) Merge(other *FrontendStats) {
	f.Insts += other.Insts
	f.Bytes += other.Bytes
	f.Compressed += other.Compressed
	f.Pairs += other.Pairs
	f.Redirects += other.Redirects
}

// CompressedShare is the percentage of instructions fetched at 3 bytes.
func (f *FrontendStats) CompressedShare() float64 {
	if f.Insts == 0 {
		return 0
	}
	return 100 * float64(f.Compressed) / float64(f.Insts)
}

// PairShare is the percentage of instructions covered by dual-issue pairs.
func (f *FrontendStats) PairShare() float64 {
	if f.Insts == 0 {
		return 0
	}
	return 100 * float64(2*f.Pairs) / float64(f.Insts)
}

// MeanRunLength is the average number of instructions between control
// transfers — the sequential window the byte-fetch path streams over.
func (f *FrontendStats) MeanRunLength() float64 {
	if f.Redirects == 0 {
		return float64(f.Insts)
	}
	return float64(f.Insts) / float64(f.Redirects)
}

// FrontendState is the wire form of a FrontendStats tally.
type FrontendState struct {
	Insts      uint64 `json:"insts"`
	Bytes      uint64 `json:"bytes"`
	Compressed uint64 `json:"compressed"`
	Pairs      uint64 `json:"pairs"`
	Redirects  uint64 `json:"redirects"`
}

// State returns a copy of the raw tally for transport.
func (f *FrontendStats) State() FrontendState {
	return FrontendState{
		Insts: f.Insts, Bytes: f.Bytes, Compressed: f.Compressed,
		Pairs: f.Pairs, Redirects: f.Redirects,
	}
}

// AddState folds a transported tally into f (order-independent sums).
func (f *FrontendStats) AddState(st FrontendState) {
	f.Insts += st.Insts
	f.Bytes += st.Bytes
	f.Compressed += st.Compressed
	f.Pairs += st.Pairs
	f.Redirects += st.Redirects
}
