// Package pipeline implements the paper's seven in-order timing models on
// one shared stage-scheduling engine:
//
//	Baseline32            conventional 32-bit 5-stage pipeline (§3)
//	ByteSerial            1-byte datapath, 3-byte I-cache (§4, Fig. 3)
//	HalfwordSerial        16-bit datapath variant (§4)
//	SemiParallel          3B fetch / 2B RF+ALU / 1B D-cache (§5, Fig. 5)
//	ParallelSkewed        4B datapath, byte-sliced EX stages (§6, Fig. 7)
//	ParallelCompressed    4B datapath, original 5 stages (§6, Fig. 9)
//	ParallelSkewedBypass  skewed plus forwarding/skip paths (§6)
//
// Shared conventions (§3 and DESIGN.md §5): in-order issue, no branch
// prediction — fetch stalls until a branch resolves in the ALU stage(s);
// J/JAL redirect at the end of decode; cache and TLB latencies from the
// paper's memory hierarchy; full forwarding where the design provides it.
//
// The engine is an analytical in-order scheduler: per instruction it
// computes the cycle each stage is entered subject to (a) stage occupancy
// of earlier instructions, (b) the no-passing rule (an instruction cannot
// overtake its predecessor in any stage), (c) operand readiness via the
// model's forwarding discipline, and (d) fetch blocking by unresolved
// control flow. Serial models stream blocks: a stage may start one cycle
// after its predecessor stage started (first byte flows ahead while later
// bytes are still being produced), which is the paper's byte pipelining
// ("while later sequential data bytes are being processed, earlier bytes
// can proceed up the pipeline", §4).
package pipeline

import (
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

// StallKind classifies lost cycles for the §5 bottleneck study.
type StallKind string

// Stall categories.
const (
	StallBranch    StallKind = "branch"       // fetch blocked on unresolved control flow
	StallICache    StallKind = "icache"       // instruction fetch misses
	StallDCache    StallKind = "dcache"       // data access misses
	StallData      StallKind = "data-hazard"  // operand not ready
	StallStructEX  StallKind = "struct-ex"    // EX stage busy (multi-cycle occupancy ahead)
	StallStructRF  StallKind = "struct-rf"    // RF/decode stage busy
	StallStructMEM StallKind = "struct-mem"   // MEM stage busy
	StallStructWB  StallKind = "struct-wb"    // WB stage busy
	StallStructIF  StallKind = "struct-if"    // fetch stage busy
	StallFetchBuf  StallKind = "fetch-buffer" // byte-fetch buffer full (frontend models)
)

// Result is the outcome of one model over one benchmark trace.
type Result struct {
	Model  string
	Insts  uint64
	Cycles uint64
	Stalls map[StallKind]uint64
}

// CPI returns cycles per instruction.
func (r Result) CPI() float64 {
	if r.Insts == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Insts)
}

// spec describes one pipeline model for the engine. A model's per-row
// stage costs are computed by its kind's case in rowCosts (batch.go).
type spec struct {
	name   string
	stages []string

	// kind selects the model's stage-cost kernel (see batch.go). Set by
	// the constructors in models.go, alternates.go and frontend.go.
	kind int

	// exStage consumes register operands and resolves branches; memStage
	// holds the D-cache access; wbStage writes the register file.
	exStage, memStage, wbStage int

	// streaming: stage s+1 may start one cycle after stage s started
	// (byte/halfword pipelining). Non-streaming models hand the whole
	// word forward: stage s+1 starts after stage s completes.
	streaming bool

	// frontend, when non-nil, replaces the whole scheduling core with the
	// byte-budgeted fetch engine (frontend.go): fetch bandwidth in bytes
	// per cycle, a capacity-bounded fetch buffer, and optional dual issue
	// of compressed instruction pairs.
	frontend *frontendSpec
}

// Model is a pipeline timing simulator consuming one benchmark's trace.
type Model struct {
	spec spec
	// misses, set by SetHierarchy, simulates the model's own memory system
	// per block in place of the trace's default-hierarchy miss stream.
	misses *trace.MissBuilder
	pred   *predictor // nil in the paper's base machines
	// observer, when set, receives every scheduled instruction's stage
	// entry times (used by Timeline).
	observer func(in isa.Inst, pc uint32, enter []uint64, occ []int, skip []bool)

	stageFree    []uint64
	prevEnter    []uint64
	fetchBlocked uint64
	// Register readiness for forwarding: First is when the first block can
	// be consumed by a streaming EX; Full is when the whole value exists.
	readyFirst [32]uint64
	readyFull  [32]uint64
	hiloFull   uint64

	insts  uint64
	cycles uint64
	stalls map[StallKind]uint64

	enter []uint64       // scratch
	batch batchState     // ConsumeBlock scratch, filled on the first block
	fe    *frontendState // byte-fetch scheduler state (frontend models only)
}

func newModel(s spec) *Model {
	return &Model{
		spec:      s,
		stageFree: make([]uint64, len(s.stages)),
		prevEnter: make([]uint64, len(s.stages)),
		stalls:    make(map[StallKind]uint64),
		enter:     make([]uint64, len(s.stages)),
	}
}

// SetHierarchy replaces the model's memory system (for cache-geometry
// sensitivity studies). It must be called before the first block. The
// trace's miss stream describes only the default hierarchy, so the model
// then simulates its own geometry over each block (trace.MissBuilder)
// before running the same kernel.
func (m *Model) SetHierarchy(cfg mem.HierarchyConfig) *Model {
	if m.insts != 0 {
		panic("pipeline: SetHierarchy after simulation started")
	}
	m.misses = trace.NewMissBuilder(cfg)
	return m
}

// Name returns the model name.
func (m *Model) Name() string { return m.spec.name }

// Result returns the accumulated statistics.
func (m *Model) Result() Result {
	stalls := make(map[StallKind]uint64, len(m.stalls))
	for k, v := range m.stalls {
		stalls[k] = v
	}
	return Result{Model: m.spec.name, Insts: m.insts, Cycles: m.cycles, Stalls: stalls}
}
