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

// occFunc computes a stage's occupancy in cycles for one instruction.
type occFunc func(e trace.Event) int

// one is the unit-occupancy stage.
func one(trace.Event) int { return 1 }

// spec describes one pipeline model for the engine.
type spec struct {
	name   string
	stages []string
	occ    []occFunc

	// kind selects the batch-replay kernel mirroring this spec's closures
	// (see batch.go); kindGeneric (the zero value) makes ConsumeBlock fall
	// back to the scalar Consume path.
	kind int

	// lat gives per-stage extra latency cycles: the instruction spends the
	// extra cycles in the stage but does NOT hold it against the next
	// instruction. This models the parallel designs' banked stages, whose
	// second access phase (upper-byte banks, fourth instruction byte)
	// overlaps the successor's first phase (low-byte bank) without
	// conflict. nil entries mean zero.
	lat []occFunc

	// skip marks stages an instruction passes through combinationally
	// (zero cycles, no occupancy) — the skewed+bypass design's forwarding
	// paths that let short operands "skip the stages where no operation is
	// performed" (§6). nil entries mean never skipped.
	skip []func(e trace.Event) bool

	// exStage consumes register operands and resolves branches; memStage
	// holds the D-cache access; wbStage writes the register file.
	exStage, memStage, wbStage int

	// streaming: stage s+1 may start one cycle after stage s started
	// (byte/halfword pipelining). Non-streaming models hand the whole
	// word forward: stage s+1 starts after stage s completes.
	streaming bool

	// exSlices returns how many cycles after EX entry the full result is
	// available for forwarding (serial production). nil means the EX
	// occupancy is used.
	exSlices func(e trace.Event) int

	// branchResolve returns the cycle the fetch unblocks given the EX
	// entry cycle. nil means end of EX occupancy.
	branchResolve func(e trace.Event, exEnter, exEnd uint64) uint64

	// pcExtra adds serial PC-increment cycles to the fetch stage.
	pcExtra func(e trace.Event) int

	// frontend, when non-nil, replaces the whole scheduling core with the
	// byte-budgeted fetch engine (frontend.go): fetch bandwidth in bytes
	// per cycle, a capacity-bounded fetch buffer, and optional dual issue
	// of compressed instruction pairs.
	frontend *frontendSpec
}

// structKind maps a stage index to its structural stall bucket.
func (s *spec) structKind(stage int) StallKind {
	switch {
	case stage == 0:
		return StallStructIF
	case stage == s.exStage:
		return StallStructEX
	case stage == s.memStage:
		return StallStructMEM
	case stage == s.wbStage:
		return StallStructWB
	default:
		return StallStructRF
	}
}

// Model is a pipeline timing simulator consuming one benchmark's trace.
type Model struct {
	spec spec
	// hier is the model's own memory system, allocated by the scalar
	// Consume path (or SetHierarchy). Batch replay reads the trace's
	// shared miss stream instead and leaves it nil.
	hier *mem.Hierarchy
	pred *predictor // nil in the paper's base machines
	// observer, when set, receives every scheduled instruction's stage
	// entry times (used by Timeline).
	observer func(e trace.Event, enter []uint64, occ []int, skip []bool)

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
// sensitivity studies). It must be called before the first Consume. The
// trace's miss stream describes only the default hierarchy, so a model with
// its own replays batch blocks through the reference Consume path.
func (m *Model) SetHierarchy(cfg mem.HierarchyConfig) *Model {
	if m.insts != 0 {
		panic("pipeline: SetHierarchy after simulation started")
	}
	m.hier = mem.NewHierarchy(cfg)
	return m
}

// Name returns the model name.
func (m *Model) Name() string { return m.spec.name }

// hierarchy returns the model's own memory system, allocating the paper's
// default one on first use.
func (m *Model) hierarchy() *mem.Hierarchy {
	if m.hier == nil {
		m.hier = mem.NewHierarchy(mem.DefaultHierarchyConfig())
	}
	return m.hier
}

func (m *Model) stall(kind StallKind, cycles uint64) {
	if cycles > 0 {
		m.stalls[kind] += cycles
	}
}

// Consume implements trace.Consumer: schedules one instruction.
func (m *Model) Consume(e trace.Event) {
	if m.spec.frontend != nil {
		m.consumeFrontend(e)
		return
	}
	s := &m.spec
	n := len(s.stages)

	// Stage occupancies and extra latencies for this instruction.
	occ := make([]int, n)
	lat := make([]int, n)
	for i := range occ {
		occ[i] = s.occ[i](e)
		if occ[i] < 1 {
			occ[i] = 1
		}
		if s.lat != nil && s.lat[i] != nil {
			lat[i] = s.lat[i](e)
		}
	}
	if s.pcExtra != nil {
		occ[0] += s.pcExtra(e)
	}

	// Cache/TLB stalls. Fetch stalls extend the fetch occupancy; data
	// stalls extend MEM.
	hier := m.hierarchy()
	icStall := hier.Fetch(e.PC)
	occ[0] += icStall
	m.stall(StallICache, uint64(icStall))
	dcStall := 0
	if e.MemWidth > 0 {
		dcStall = hier.Data(e.Addr, e.Inst.IsStore())
		occ[s.memStage] += dcStall
		m.stall(StallDCache, uint64(dcStall))
	}

	// Fetch entry: stage free, no passing, and control-flow blocking.
	enter := m.enter
	base := m.stageFree[0]
	if p := m.prevEnter[0] + 1; m.insts > 0 && p > base {
		base = p
	}
	if m.fetchBlocked > base {
		m.stall(StallBranch, m.fetchBlocked-base)
		base = m.fetchBlocked
	}
	enter[0] = base

	// stallIn[i] is the cache stall embedded in stage i's occupancy; even in
	// streaming mode no data leaves the stage before the miss is serviced.
	stallIn := make([]int, n)
	stallIn[0] = icStall
	stallIn[s.memStage] += dcStall

	skipped := make([]bool, n)
	prevAdvance := func(i int) uint64 {
		if skipped[i-1] {
			return enter[i-1] + uint64(lat[i-1])
		}
		if s.streaming {
			return enter[i-1] + 1 + uint64(stallIn[i-1]) + uint64(lat[i-1])
		}
		return enter[i-1] + uint64(occ[i-1]) + uint64(lat[i-1])
	}
	for i := 1; i < n; i++ {
		if s.skip != nil && s.skip[i] != nil && s.skip[i](e) {
			// Forwarded combinationally through this stage.
			skipped[i] = true
			enter[i] = prevAdvance(i)
			continue
		}
		t := prevAdvance(i)
		if m.stageFree[i] > t {
			m.stall(s.structKind(i), m.stageFree[i]-t)
			t = m.stageFree[i]
		}
		if p := m.prevEnter[i] + 1; m.insts > 0 && p > t {
			t = p
		}
		if i == s.exStage {
			if ready := m.operandReady(e); ready > t {
				m.stall(StallData, ready-t)
				t = ready
			}
		}
		enter[i] = t
	}

	// Occupy stages (skipped stages are not held).
	for i := 0; i < n; i++ {
		if !skipped[i] {
			m.stageFree[i] = enter[i] + uint64(occ[i])
		}
		m.prevEnter[i] = enter[i]
	}

	exEnter := enter[s.exStage]
	exEnd := exEnter + uint64(occ[s.exStage]) + uint64(lat[s.exStage])

	// Publish result readiness.
	if e.HasDest {
		var first, full uint64
		if e.Inst.IsLoad() {
			memEnd := enter[s.memStage] + uint64(occ[s.memStage]) + uint64(lat[s.memStage])
			first = enter[s.memStage] + uint64(dcStall) + 1
			full = memEnd
		} else {
			first = exEnter + 1
			slices := occ[s.exStage]
			if s.exSlices != nil {
				slices = s.exSlices(e)
			}
			full = exEnter + uint64(slices)
		}
		if full < first {
			full = first
		}
		m.readyFirst[e.Dest] = first
		m.readyFull[e.Dest] = full
	}
	if e.Inst.WritesHILO() {
		m.hiloFull = exEnd
	}

	// Control flow: conditional branches and register jumps resolve in EX;
	// J/JAL redirect after decode. With the optional predictor, correctly
	// predicted branches cost only the decode redirect (taken) or nothing
	// (not-taken); mispredictions block fetch until resolution.
	switch {
	case e.Inst.IsBranch():
		resolve := exEnd
		if s.branchResolve != nil {
			resolve = s.branchResolve(e, exEnter, exEnd)
		}
		if m.pred != nil {
			predicted := m.pred.predict(e.PC)
			m.pred.update(e.PC, predicted, e.Taken)
			switch {
			case predicted == e.Taken && !e.Taken:
				// Correct fall-through: fetch never stalled.
			case predicted == e.Taken:
				// Correct taken: BTB redirect at the end of decode.
				m.fetchBlocked = enter[1] + uint64(occ[1])
			default:
				m.fetchBlocked = resolve
			}
		} else {
			m.fetchBlocked = resolve
		}
	case e.Inst.Op == isa.OpSpecial && (e.Inst.Funct == isa.FnJR || e.Inst.Funct == isa.FnJALR):
		resolve := exEnd
		if s.branchResolve != nil {
			resolve = s.branchResolve(e, exEnter, exEnd)
		}
		m.fetchBlocked = resolve
	case e.Inst.Op == isa.OpJ || e.Inst.Op == isa.OpJAL:
		decodeEnd := enter[1] + uint64(occ[1])
		m.fetchBlocked = decodeEnd
	}

	end := enter[n-1] + uint64(occ[n-1]) + uint64(lat[n-1])
	if end > m.cycles {
		m.cycles = end
	}
	if m.observer != nil {
		m.observer(e, enter, occ, skipped)
	}
	m.insts++
}

// operandReady returns the earliest cycle the EX stage may start given the
// forwarding discipline and this instruction's register sources.
func (m *Model) operandReady(e trace.Event) uint64 {
	s := &m.spec
	var ready uint64
	use := func(r isa.Reg) {
		var t uint64
		if s.streaming {
			t = m.readyFirst[r]
		} else {
			t = m.readyFull[r]
		}
		// Register jumps need the complete address regardless.
		if e.Inst.IsJump() {
			t = m.readyFull[r]
		}
		if t > ready {
			ready = t
		}
	}
	if e.ReadsA {
		use(e.Inst.Rs)
	}
	if e.ReadsB {
		use(e.Inst.Rt)
	}
	if e.Inst.Op == isa.OpSpecial &&
		(e.Inst.Funct == isa.FnMFHI || e.Inst.Funct == isa.FnMFLO) {
		if m.hiloFull > ready {
			ready = m.hiloFull
		}
	}
	return ready
}

// Result returns the accumulated statistics.
func (m *Model) Result() Result {
	stalls := make(map[StallKind]uint64, len(m.stalls))
	for k, v := range m.stalls {
		stalls[k] = v
	}
	return Result{Model: m.spec.name, Insts: m.insts, Cycles: m.cycles, Stalls: stalls}
}
