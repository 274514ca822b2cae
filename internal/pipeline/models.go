package pipeline

// Model name constants.
const (
	NameBaseline32           = "baseline32"
	NameByteSerial           = "byteserial"
	NameHalfwordSerial       = "halfserial"
	NameSemiParallel         = "semiparallel"
	NameParallelSkewed       = "skewed"
	NameParallelCompressed   = "compressed"
	NameParallelSkewedBypass = "skewed+bypass"
)

// pcCarry returns the extra serial PC-increment cycles at block size g
// bytes: the increment processes low blocks until the carry dies (Table 2).
func pcCarry(pc, nextPC uint32, g int) int {
	if nextPC != pc+4 {
		return 0 // redirects are charged to the branch machinery
	}
	extra := 0
	mask := uint32(1)<<(8*g) - 1
	add := uint32(4)
	for b := 0; b < 4/g-1; b++ {
		blk := (pc >> (8 * g * b)) & mask
		if blk+add <= mask {
			break // carry dies in this block
		}
		extra++
		add = 1
	}
	return extra
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// NewBaseline32 builds the conventional 32-bit 5-stage pipeline: the
// reference machine of every figure.
func NewBaseline32() *Model {
	return newModel(spec{
		name:     NameBaseline32,
		kind:     kindBaseline32,
		stages:   []string{"IF", "ID", "EX", "MEM", "WB"},
		exStage:  2,
		memStage: 3,
		wbStage:  4,
	})
}

// NewByteSerial builds the §4 byte-serial pipeline: one-byte datapath
// everywhere except the three-byte instruction cache, with a serial PC
// increment unit.
//
// The register bytes stream straight into the byte ALU (decode reads the
// low byte plus extension bits in one cycle; further bytes arrive one per
// cycle as the ALU consumes them), so the combined operand-plus-ALU
// serialization is carried by the EX stage: its occupancy is
// max(significant source bytes, ALU byte operations). This matches the
// paper's bottleneck attribution ("72% of the stalls were caused by
// structural hazards in the EX stage", §5) — and its remedy, which widens
// the register file and the ALU together.
//
// The three-byte instruction cache (shared by every compressed design)
// delivers three bytes in one cycle and needs a second cycle for the
// fourth byte (§4: "three instruction cache banks ... the instruction
// remains in this stage for one more cycle"); the serial PC increment adds
// a cycle per carried block (pcCarry); MEM and WB take one cycle per
// significant byte moved.
func NewByteSerial() *Model {
	return newModel(spec{
		name:      NameByteSerial,
		kind:      kindByteSerial,
		stages:    []string{"IF", "ID", "EX", "MEM", "WB"},
		exStage:   2,
		memStage:  3,
		wbStage:   4,
		streaming: true,
	})
}

// NewHalfwordSerial builds the 16-bit variant of the serial pipeline (§4's
// "widened to 16-bits" design). The three-byte instruction cache is kept:
// instruction compression is independent of the data granularity.
func NewHalfwordSerial() *Model {
	return newModel(spec{
		name:      NameHalfwordSerial,
		kind:      kindHalfSerial,
		stages:    []string{"IF", "ID", "EX", "MEM", "WB"},
		exStage:   2,
		memStage:  3,
		wbStage:   4,
		streaming: true,
	})
}

// NewSemiParallel builds the §5 byte semi-parallel pipeline (Fig. 5):
// bandwidth-balanced at 3 fetch bytes, 2 register/ALU bytes and 1 data
// cache byte per cycle. The register access is skewed: the low byte and
// extension bits are read in RF0; the remaining bytes are read two per
// cycle in the next stage ("produce a full data word in 2 cycles instead
// of 4") while the ALU begins on the low byte; the second ALU stage runs
// for as many cycles as the register stage (§5). Write-back stores the low
// byte plus one more in its first cycle, two per cycle after that.
//
// The second ALU stage runs for max(extra source pairs, extra ALU pairs)
// cycles; the result is complete after all ALU bytes stream through EX0/EX1
// at two bytes per cycle; and the byte-serial comparator resolves a branch
// once the last significant operand byte pair has been examined.
func NewSemiParallel() *Model {
	return newModel(spec{
		name:      NameSemiParallel,
		kind:      kindSemiParallel,
		stages:    []string{"IF", "RF0", "RF1/EX0", "EX1", "MEM", "WB"},
		exStage:   2,
		memStage:  4,
		wbStage:   5,
		streaming: true,
	})
}

// newSkewed builds the §6 byte-parallel skewed pipeline (Fig. 7): a
// full-width datapath whose EX is byte-sliced across two skewed stages, so
// no stage is ever held more than one cycle ("optimized for the long data
// case ... No stage is used more than once"). The data cache is indexed by
// the low address bytes, so MEM follows the second slice stage; the upper
// result slices (EX2/EX3 in the figure) complete in parallel with MEM and
// are modelled through the forwarding-readiness horizon (exSlices) rather
// than as occupied stages.
//
// With bypasses (the skewed+bypass design) short operands forward their
// complete result as soon as the needed slices have run and the branch
// outcome is collected from the slice that finishes the comparison; without
// them the control unit picks the outcome up one slice later and full
// results exist only after the last slice.
//
// The byte-sliced comparator resolves a branch in the slice holding the
// last significant operand byte (intrinsic to the skewed datapath). With
// bypasses, short operations (one significant source byte, one ALU byte)
// skip the second slice stage entirely.
func newSkewed(name string, bypasses bool) *Model {
	kind := kindSkewed
	if bypasses {
		kind = kindSkewedBypass
	}
	return newModel(spec{
		name:      name,
		kind:      kind,
		stages:    []string{"IF", "RF0", "EX0", "EX1", "MEM", "WB"},
		exStage:   2,
		memStage:  4,
		wbStage:   5,
		streaming: true,
	})
}

// NewParallelSkewed builds the plain byte-parallel skewed pipeline.
func NewParallelSkewed() *Model { return newSkewed(NameParallelSkewed, false) }

// NewParallelSkewedBypass builds the skewed pipeline with forwarding paths
// (§6's best-of-both design).
func NewParallelSkewedBypass() *Model { return newSkewed(NameParallelSkewedBypass, true) }

// NewParallelCompressed builds the §6 "compressed" parallel pipeline
// (Fig. 9): the original five stages, full-width units with operand
// gating; short data flows in single cycles while full-width data spends
// "one more cycle in the same stage" for the fourth instruction byte, the
// upper operand bytes and the upper loaded bytes. The second cycle reads
// the upper-byte banks, which the successor's first cycle (low-byte bank
// plus extension bits) does not touch, so it adds latency to the
// instruction without holding the stage — that pipelining is the only
// reading consistent with the paper's 6% average CPI cost.
func NewParallelCompressed() *Model {
	return newModel(spec{
		name:     NameParallelCompressed,
		kind:     kindCompressed,
		stages:   []string{"IF", "RF", "EX", "MEM", "WB"},
		exStage:  2,
		memStage: 3,
		wbStage:  4,
	})
}

// registry is the single source of truth for the model catalog: AllNames,
// New, NewAll, the sigsim suite table, and the service's /v1/models all
// derive from this ordered list, so a model added here is listed, servable,
// and swept everywhere at once (pinned by TestModelRegistryConsistency).
var registry = []struct {
	name string
	ctor func() *Model
}{
	{NameBaseline32, NewBaseline32},
	{NameByteSerial, NewByteSerial},
	{NameHalfwordSerial, NewHalfwordSerial},
	{NameSemiParallel, NewSemiParallel},
	{NameParallelCompressed, NewParallelCompressed},
	{NameParallelSkewed, NewParallelSkewed},
	{NameParallelSkewedBypass, NewParallelSkewedBypass},
	{NameByteFetch2, func() *Model { return NewByteFetch(2, false, false) }},
	{NameByteFetch3, func() *Model { return NewByteFetch(3, false, false) }},
	{NameByteFetch4, func() *Model { return NewByteFetch(4, false, false) }},
	{NameByteFetch4Raw, func() *Model { return NewByteFetch(4, false, true) }},
	{NameDualCompress4, func() *Model { return NewByteFetch(4, true, false) }},
}

// New builds a model by name, or nil if unknown. Beyond the registry it
// resolves the parameterized byte-fetch spellings ("bytefetch<B>[-raw]",
// "dualc<B>[-raw]") for sweep axes outside the advertised widths.
func New(name string) *Model {
	for _, r := range registry {
		if r.name == name {
			return r.ctor()
		}
	}
	if bytes, dual, raw, ok := parseByteFetchName(name); ok {
		return NewByteFetch(bytes, dual, raw)
	}
	return nil
}

// AllNames lists the models in presentation order (baseline first, then by
// increasing hardware parallelism, then the byte-fetch frontends).
func AllNames() []string {
	out := make([]string, len(registry))
	for i, r := range registry {
		out[i] = r.name
	}
	return out
}

// NewAll builds one of every model.
func NewAll() []*Model {
	names := AllNames()
	out := make([]*Model, len(names))
	for i, n := range names {
		out[i] = New(n)
	}
	return out
}
