package activity

import (
	"sort"

	"repro/internal/sig"
	"repro/internal/trace"
)

// PartitionStats evaluates the §2.1 future-work question: which division of
// the word into (possibly non-uniform, non-power-of-two) segments minimizes
// stored bits? It accumulates, per candidate partition, the total bits held
// for every register operand value, including each partition's extension
// overhead.
//
// The kernel never evaluates a candidate per value. A value's stored bits
// under a partition are its low segment, its extension bits and the width
// of every upper segment that is not an extension, and whether a segment
// is an extension depends only on the segment, not on the candidate it
// belongs to. So the kernel counts, per distinct upper segment (its
// sig.ExtMask), how many values had to store it, and folds those counts
// into each candidate's bits once per block.
type PartitionStats struct {
	names  []string
	parts  []sig.Partition
	bits   []uint64
	values uint64

	masks  []uint32     // distinct upper-segment sig.ExtMask words
	stored []uint64     // per mask: values of the current block storing it
	terms  [][]partTerm // per candidate: its upper segments
}

// partTerm is one upper segment of a candidate: the index of its mask in
// PartitionStats.masks and its width in bits.
type partTerm struct{ mask, width int }

// NewPartitionStats builds the tally over sig.CandidatePartitions.
func NewPartitionStats() *PartitionStats {
	cands := sig.CandidatePartitions()
	names := make([]string, 0, len(cands))
	for n := range cands {
		names = append(names, n)
	}
	sort.Strings(names)
	ps := &PartitionStats{names: names}
	index := make(map[uint32]int)
	for _, n := range names {
		p := cands[n]
		ps.parts = append(ps.parts, p)
		var terms []partTerm
		s := p[0]
		for _, w := range p[1:] {
			m := sig.ExtMask(s, w)
			k, ok := index[m]
			if !ok {
				k = len(ps.masks)
				index[m] = k
				ps.masks = append(ps.masks, m)
			}
			terms = append(terms, partTerm{k, w})
			s += w
		}
		ps.terms = append(ps.terms, terms)
	}
	ps.bits = make([]uint64, len(ps.parts))
	ps.stored = make([]uint64, len(ps.masks))
	return ps
}

// ConsumeBlock implements trace.Consumer over register operand values.
func (ps *PartitionStats) ConsumeBlock(b *trace.Block) {
	masks := ps.masks
	stored := ps.stored[:len(masks)]
	var n uint64
	for i, sw := range b.Slot {
		st := &b.Statics[sw&trace.SlotMask]
		if st.ReadsA {
			countStored(stored, masks, b.SrcA[i])
			n++
		}
		if st.ReadsB {
			countStored(stored, masks, b.SrcB[i])
			n++
		}
	}
	ps.values += n
	for c, p := range ps.parts {
		bits := n * uint64(p[0]+p.ExtBits())
		for _, t := range ps.terms[c] {
			bits += uint64(t.width) * stored[t.mask]
		}
		ps.bits[c] += bits
	}
	clear(stored)
}

// countStored adds 1 to stored[k] for every mask whose segment v must
// store: the segment is an extension iff sig.EqBits(v) covers the mask.
func countStored(stored []uint64, masks []uint32, v uint32) {
	eq := sig.EqBits(v)
	for k, m := range masks {
		if eq&m != m {
			stored[k]++
		}
	}
}

// Merge folds other's tallies into ps. Both sides must come from
// NewPartitionStats (same sorted candidate set), which every constructor in
// this repository guarantees; merging is then an order-independent sum.
func (ps *PartitionStats) Merge(other *PartitionStats) {
	if len(ps.bits) != len(other.bits) {
		panic("activity: merging PartitionStats over different candidate sets")
	}
	ps.values += other.values
	for i := range ps.bits {
		ps.bits[i] += other.bits[i]
	}
}

// PartitionRow is one candidate's outcome.
type PartitionRow struct {
	Name     string
	Segments sig.Partition
	MeanBits float64 // stored bits per value, overhead included
	Saving   float64 // percent vs the 32-bit baseline
}

// Rows returns the candidates ordered best (fewest mean bits) first.
func (ps *PartitionStats) Rows() []PartitionRow {
	rows := make([]PartitionRow, len(ps.parts))
	for i := range ps.parts {
		mean := 0.0
		if ps.values > 0 {
			mean = float64(ps.bits[i]) / float64(ps.values)
		}
		rows[i] = PartitionRow{
			Name:     ps.names[i],
			Segments: ps.parts[i],
			MeanBits: mean,
			Saving:   100 * (1 - mean/32),
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].MeanBits < rows[j].MeanBits })
	return rows
}

// Values returns how many operand values were tallied.
func (ps *PartitionStats) Values() uint64 { return ps.values }

// Width64Stats evaluates the paper's §2.9 closing claim ("if a 64-bit ISA
// were to be used, the savings will likely be much greater"): the same
// register operand values, held in 64-bit registers, compared under the
// per-byte scheme on both machine widths.
type Width64Stats struct {
	bits32, bits64 uint64
	values         uint64
}

// NewWidth64Stats returns an empty tally.
func NewWidth64Stats() *Width64Stats { return &Width64Stats{} }

// ConsumeBlock implements trace.Consumer over register operand values.
//
// The 64-bit side needs no second classification: in sig.Extend64(v) bytes
// 4–7 all equal bit 31, the top bit of byte 3, so they are always
// extensions, and bytes 1–3 mark exactly as on the 32-bit machine. Both
// widths therefore store the same bytes and differ only in extension bits.
func (w *Width64Stats) ConsumeBlock(b *trace.Block) {
	var n, bytes uint64
	for i, sw := range b.Slot {
		st := &b.Statics[sw&trace.SlotMask]
		if st.ReadsA {
			bytes += uint64(sig.Ext3Of(b.SrcA[i]).SigByteCount())
			n++
		}
		if st.ReadsB {
			bytes += uint64(sig.Ext3Of(b.SrcB[i]).SigByteCount())
			n++
		}
	}
	w.values += n
	w.bits32 += 8*bytes + n*sig.Ext3Bits
	w.bits64 += 8*bytes + n*sig.Ext64Bits
}

// Merge folds other's tallies into w (order-independent sums).
func (w *Width64Stats) Merge(other *Width64Stats) {
	w.bits32 += other.bits32
	w.bits64 += other.bits64
	w.values += other.values
}

// Saving32 returns the mean storage saving on the 32-bit machine (%).
func (w *Width64Stats) Saving32() float64 {
	if w.values == 0 {
		return 0
	}
	return 100 * (1 - float64(w.bits32)/float64(32*w.values))
}

// Saving64 returns the mean storage saving on the 64-bit machine (%).
func (w *Width64Stats) Saving64() float64 {
	if w.values == 0 {
		return 0
	}
	return 100 * (1 - float64(w.bits64)/float64(64*w.values))
}
