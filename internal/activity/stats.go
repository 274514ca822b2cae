package activity

import (
	"sort"

	"repro/internal/isa"
	"repro/internal/sig"
	"repro/internal/trace"
)

// PatternStats tallies the paper's Table 1: the relative frequency of each
// significant-byte pattern over register operand values.
type PatternStats struct {
	counts map[string]uint64
	total  uint64
}

// NewPatternStats returns an empty tally.
func NewPatternStats() *PatternStats {
	return &PatternStats{counts: make(map[string]uint64)}
}

// ConsumeBlock implements trace.Consumer: every register source operand
// value is classified.
func (p *PatternStats) ConsumeBlock(b *trace.Block) {
	for i, sw := range b.Slot {
		st := &b.Statics[sw&trace.SlotMask]
		if st.ReadsA {
			p.add(b.SrcA[i])
		}
		if st.ReadsB {
			p.add(b.SrcB[i])
		}
	}
}

func (p *PatternStats) add(v uint32) {
	p.counts[sig.PatternOf(v)]++
	p.total++
}

// Merge folds other's tallies into p. Counts are pure sums, so merging is
// order-independent: any grouping of per-benchmark PatternStats merged in
// any order yields the same tally as one collector fed the whole suite.
func (p *PatternStats) Merge(other *PatternStats) {
	for pat, n := range other.counts {
		p.counts[pat] += n
	}
	p.total += other.total
}

// PatternRow is one line of Table 1.
type PatternRow struct {
	Pattern    string
	Percent    float64
	Cumulative float64
	TwoBitOK   bool // expressible by the 2-bit count scheme
}

// Rows returns the table sorted by descending frequency.
func (p *PatternStats) Rows() []PatternRow {
	type kv struct {
		pat string
		n   uint64
	}
	var all []kv
	for _, pat := range sig.AllPatterns() {
		all = append(all, kv{pat, p.counts[pat]})
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].n > all[j].n })
	rows := make([]PatternRow, 0, len(all))
	cum := 0.0
	for _, e := range all {
		pct := 0.0
		if p.total > 0 {
			pct = 100 * float64(e.n) / float64(p.total)
		}
		cum += pct
		rows = append(rows, PatternRow{
			Pattern:    e.pat,
			Percent:    pct,
			Cumulative: cum,
			TwoBitOK:   twoBitPattern(e.pat),
		})
	}
	return rows
}

// twoBitPattern reports whether a pattern has all its extension bytes
// contiguous at the most-significant end (encodable by the 2-bit scheme).
func twoBitPattern(pat string) bool {
	seenSig := false
	for i := 0; i < len(pat); i++ {
		if pat[i] == 's' {
			seenSig = true
		} else if seenSig {
			return false
		}
	}
	return true
}

// TwoBitCoverage returns the percentage of operand values whose pattern the
// 2-bit scheme can encode (the paper reports ~94%).
func (p *PatternStats) TwoBitCoverage() float64 {
	if p.total == 0 {
		return 0
	}
	var n uint64
	for pat, c := range p.counts {
		if twoBitPattern(pat) {
			n += c
		}
	}
	return 100 * float64(n) / float64(p.total)
}

// Total returns the number of operand values classified.
func (p *PatternStats) Total() uint64 { return p.total }

// FetchStats tallies the §2.3 text numbers: dynamic format mix and mean
// fetched bytes per instruction.
type FetchStats struct {
	Insts     uint64
	Bytes     uint64
	ThreeByte uint64
	RFormat   uint64
	IFormat   uint64
	JFormat   uint64
	ImmUsers  uint64 // I-format instructions
	ImmFits8  uint64 // ... whose immediate compressed away
}

// ConsumeBlock implements trace.Consumer.
func (f *FetchStats) ConsumeBlock(b *trace.Block) {
	for _, sw := range b.Slot {
		slot := sw & trace.SlotMask
		ifBytes := b.IFB[slot]
		f.Insts++
		f.Bytes += uint64(ifBytes)
		if ifBytes == 3 {
			f.ThreeByte++
		}
		switch b.Statics[slot].Inst.Format() {
		case isa.FormatR:
			f.RFormat++
		case isa.FormatJ:
			f.JFormat++
		default:
			f.IFormat++
			f.ImmUsers++
			if ifBytes == 3 {
				f.ImmFits8++
			}
		}
	}
}

// Merge folds other's tallies into f (order-independent sums).
func (f *FetchStats) Merge(other *FetchStats) {
	f.Insts += other.Insts
	f.Bytes += other.Bytes
	f.ThreeByte += other.ThreeByte
	f.RFormat += other.RFormat
	f.IFormat += other.IFormat
	f.JFormat += other.JFormat
	f.ImmUsers += other.ImmUsers
	f.ImmFits8 += other.ImmFits8
}

// MeanBytes is the average fetched bytes per instruction (paper: 3.17).
func (f *FetchStats) MeanBytes() float64 {
	if f.Insts == 0 {
		return 0
	}
	return float64(f.Bytes) / float64(f.Insts)
}

// MeanBytesWithExt includes the per-word extension bit (paper: 3.29).
func (f *FetchStats) MeanBytesWithExt() float64 {
	if f.Insts == 0 {
		return 0
	}
	return f.MeanBytes() + 1.0/8
}
