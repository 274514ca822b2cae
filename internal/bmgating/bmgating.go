// Package bmgating implements the comparison baseline the paper builds on:
// Brooks & Martonosi's narrow-width operand gating (the paper's reference
// [1], "Dynamically Exploiting Narrow Width Operands to Improve Processor
// Power and Performance", HPCA-5 1999).
//
// Their mechanism detects operands whose upper bits are all zeros (or all
// ones) at a fixed 16-bit boundary and clock-gates the upper half of the
// integer execution units when both operands are narrow. Crucially, the
// technique is confined to the functional units: instruction fetch, the
// register file, the caches, the PC unit and the pipeline latches all
// remain full width. The paper's §1 generalizes exactly this idea "to all
// stages of the pipeline" — this package exists so the generalization can
// be quantified against its starting point.
package bmgating

import (
	"repro/internal/trace"
)

// narrowBits is the detection boundary: an operand is narrow when its top
// 16 bits are a sign extension of bit 15 (zeros for positives, ones for
// negatives), matching the zero/one-detection logic of [1].
const narrowBits = 16

// Narrow reports whether v passes the 16-bit narrow-operand detector.
func Narrow(v uint32) bool {
	top := v >> narrowBits
	if v&(1<<(narrowBits-1)) != 0 {
		return top == 0xffff
	}
	return top == 0
}

// Collector tallies ALU activity under Brooks-Martonosi gating versus the
// ungated 32-bit baseline. Only the ALU column exists: the technique does
// not touch the other pipeline structures.
type Collector struct {
	baselineBits uint64
	gatedBits    uint64
	narrowOps    uint64
	totalOps     uint64
}

// NewCollector returns an empty tally.
func NewCollector() *Collector { return &Collector{} }

// ConsumeBlock implements trace.Consumer.
func (c *Collector) ConsumeBlock(b *trace.Block) {
	for i, sw := range b.Slot {
		st := &b.Statics[sw&trace.SlotMask]
		c.totalOps++
		c.baselineBits += 32
		// Both register operands (or the single one in use) must be narrow
		// for the upper half to be gated; immediates are 16-bit by
		// construction.
		if (!st.ReadsA || Narrow(b.SrcA[i])) && (!st.ReadsB || Narrow(b.SrcB[i])) {
			c.narrowOps++
			c.gatedBits += 32 - narrowBits
		} else {
			c.gatedBits += 32
		}
	}
}

// Merge folds other's tallies into c (order-independent sums), so
// per-benchmark collectors accumulated on separate goroutines can be
// combined into one suite-level tally.
func (c *Collector) Merge(other *Collector) {
	c.baselineBits += other.baselineBits
	c.gatedBits += other.gatedBits
	c.narrowOps += other.narrowOps
	c.totalOps += other.totalOps
}

// ALUSaving returns the percent ALU activity reduction under BM gating.
func (c *Collector) ALUSaving() float64 {
	if c.baselineBits == 0 {
		return 0
	}
	return 100 * (1 - float64(c.gatedBits)/float64(c.baselineBits))
}

// NarrowShare returns the fraction of operations with all-narrow operands.
func (c *Collector) NarrowShare() float64 {
	if c.totalOps == 0 {
		return 0
	}
	return float64(c.narrowOps) / float64(c.totalOps)
}

// Ops returns the operations tallied.
func (c *Collector) Ops() uint64 { return c.totalOps }
