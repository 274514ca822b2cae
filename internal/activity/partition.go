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
type PartitionStats struct {
	names  []string
	parts  []sig.Partition
	bits   []uint64
	values uint64
}

// NewPartitionStats builds the tally over sig.CandidatePartitions.
func NewPartitionStats() *PartitionStats {
	cands := sig.CandidatePartitions()
	names := make([]string, 0, len(cands))
	for n := range cands {
		names = append(names, n)
	}
	sort.Strings(names)
	ps := &PartitionStats{names: names}
	for _, n := range names {
		ps.parts = append(ps.parts, cands[n])
	}
	ps.bits = make([]uint64, len(ps.parts))
	return ps
}

// ConsumeBlock implements trace.Consumer over register operand values.
func (ps *PartitionStats) ConsumeBlock(b *trace.Block) {
	for i, sw := range b.Slot {
		st := &b.Statics[sw&trace.SlotMask]
		if st.ReadsA {
			ps.add(b.SrcA[i])
		}
		if st.ReadsB {
			ps.add(b.SrcB[i])
		}
	}
}

func (ps *PartitionStats) add(v uint32) {
	ps.values++
	for i, p := range ps.parts {
		ps.bits[i] += uint64(p.StoredBits(v))
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
func (w *Width64Stats) ConsumeBlock(b *trace.Block) {
	for i, sw := range b.Slot {
		st := &b.Statics[sw&trace.SlotMask]
		if st.ReadsA {
			w.add(b.SrcA[i])
		}
		if st.ReadsB {
			w.add(b.SrcB[i])
		}
	}
}

func (w *Width64Stats) add(v uint32) {
	w.values++
	w.bits32 += uint64(sig.StoredBits3(v))
	w.bits64 += uint64(sig.StoredBits64(sig.Extend64(v)))
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
