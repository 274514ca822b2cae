package pipeline

// Alternative model interpretations, kept for the modeling-sensitivity
// ablation (DESIGN.md §5 records which reading we adopted and why; these
// constructors quantify what the rejected readings would have cost).

// NameCompressedOccupancy labels the strict-stall reading of Fig. 9.
const NameCompressedOccupancy = "compressed-occ"

// NewParallelCompressedOccupancy builds the rejected reading of the
// compressed design, where a stage's second cycle *blocks* the next
// instruction instead of overlapping it (no banked pipelining). The paper's
// +6% average CPI is unreachable under this reading — the ablation shows
// it costs several times more.
func NewParallelCompressedOccupancy() *Model {
	return newModel(spec{
		name:     NameCompressedOccupancy,
		kind:     kindCompressedOcc,
		stages:   []string{"IF", "RF", "EX", "MEM", "WB"},
		exStage:  2,
		memStage: 3,
		wbStage:  4,
	})
}

// NameSkewedLateBranch labels the late-resolution reading of Fig. 7.
const NameSkewedLateBranch = "skewed-late-br"

// NewParallelSkewedLateBranch builds the rejected reading of the skewed
// design in which every branch resolves only after the last byte slice
// (no per-slice comparator early-out). Figure 8's "very close to baseline"
// is unreachable under this reading.
func NewParallelSkewedLateBranch() *Model {
	m := newSkewed(NameSkewedLateBranch, false)
	m.spec.kind = kindSkewedLate
	return m
}
