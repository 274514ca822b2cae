package pipeline

// The reference oracle: the event-at-a-time scheduler the block kernels
// (batch.go, frontend.go) are pinned to. It evaluates each model's stage
// costs through per-model closures over a materialized trace.Event, asks a
// private mem.Hierarchy for cache and TLB stalls, and tallies stalls in the
// Result map directly — sharing with the kernels only the Model state it
// schedules on (and feStep for the byte-fetch family). It lives in a test
// file so production has exactly one kernel per model.

import (
	"sync"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

// occFunc computes a stage's occupancy in cycles for one instruction.
type occFunc func(e trace.Event) int

// one is the unit-occupancy stage.
func one(trace.Event) int { return 1 }

// refSpec is a model's stage-cost description as closures.
type refSpec struct {
	occ []occFunc

	// lat gives per-stage extra latency cycles: the instruction spends the
	// extra cycles in the stage but does NOT hold it against the next
	// instruction (the parallel designs' banked stages). nil entries mean
	// zero.
	lat []occFunc

	// skip marks stages an instruction passes through combinationally
	// (zero cycles, no occupancy). nil entries mean never skipped.
	skip []func(e trace.Event) bool

	// exSlices returns how many cycles after EX entry the full result is
	// available for forwarding. nil means the EX occupancy is used.
	exSlices func(e trace.Event) int

	// branchResolve returns the cycle the fetch unblocks given the EX
	// entry cycle. nil means end of EX occupancy.
	branchResolve func(e trace.Event, exEnter, exEnd uint64) uint64

	// pcExtra adds serial PC-increment cycles to the fetch stage.
	pcExtra func(e trace.Event) int
}

func ifOcc3Banks(e trace.Event) int {
	if e.IFBytes > 3 {
		return 2
	}
	return 1
}

func pcExtraByte(e trace.Event) int { return pcCarry(e.PC, e.NextPC, 1) }
func pcExtraHalf(e trace.Event) int { return pcCarry(e.PC, e.NextPC, 2) }

func aluCyclesByte(e trace.Event) int { return maxInt(1, e.ALUOps) }

func memOccByte(e trace.Event) int {
	if e.MemWidth > 0 {
		return maxInt(1, e.MemBytes)
	}
	return 1
}

func memOccHalf(e trace.Event) int {
	if e.MemWidth > 0 {
		return maxInt(1, e.MemHalves)
	}
	return 1
}

// refSpecFor returns the closure description of m's kind.
func refSpecFor(m *Model) refSpec {
	ones := func(n int) []occFunc {
		occ := make([]occFunc, n)
		for i := range occ {
			occ[i] = one
		}
		return occ
	}
	switch m.spec.kind {
	case kindBaseline32, kindByteFetch:
		return refSpec{occ: ones(5)}
	case kindByteSerial:
		exOcc := func(e trace.Event) int { return maxInt(e.MaxSrcBytes(), aluCyclesByte(e)) }
		wb := func(e trace.Event) int { return maxInt(1, e.WBBytes) }
		return refSpec{occ: []occFunc{ifOcc3Banks, one, exOcc, memOccByte, wb}, pcExtra: pcExtraByte}
	case kindHalfSerial:
		exOcc := func(e trace.Event) int { return maxInt(e.MaxSrcHalves(), maxInt(1, e.ALUHalfOps)) }
		wb := func(e trace.Event) int { return maxInt(1, e.WBHalves) }
		return refSpec{occ: []occFunc{ifOcc3Banks, one, exOcc, memOccHalf, wb}, pcExtra: pcExtraHalf}
	case kindSemiParallel:
		extra := func(n int) int { return maxInt(1, n/2) }
		rfExtra := func(e trace.Event) int { return extra(e.MaxSrcBytes()) }
		exExtra := func(e trace.Event) int {
			return maxInt(extra(e.MaxSrcBytes()), extra(maxInt(1, e.ALUOps)))
		}
		wbOcc := func(e trace.Event) int { return maxInt(1, (e.WBBytes+1)/2) }
		return refSpec{
			occ:      []occFunc{ifOcc3Banks, one, rfExtra, exExtra, memOccByte, wbOcc},
			pcExtra:  pcExtraByte,
			exSlices: func(e trace.Event) int { return (maxInt(1, e.ALUOps) + 1) / 2 },
			branchResolve: func(e trace.Event, exEnter, exEnd uint64) uint64 {
				return exEnter + uint64((maxInt(e.MaxSrcBytes(), 1)+1)/2)
			},
		}
	case kindSkewed, kindSkewedBypass, kindSkewedLate:
		s := refSpec{
			occ: ones(6),
			branchResolve: func(e trace.Event, exEnter, exEnd uint64) uint64 {
				return exEnter + uint64(maxInt(e.MaxSrcBytes(), 1))
			},
			exSlices: func(trace.Event) int { return 4 },
		}
		switch m.spec.kind {
		case kindSkewedBypass:
			s.exSlices = aluCyclesByte
			shortOp := func(e trace.Event) bool { return e.MaxSrcBytes() <= 1 && e.ALUOps <= 1 }
			s.skip = []func(trace.Event) bool{nil, nil, nil, shortOp, nil, nil}
		case kindSkewedLate:
			s.branchResolve = func(e trace.Event, exEnter, exEnd uint64) uint64 { return exEnter + 4 }
		}
		return s
	case kindCompressed:
		ifLat := func(e trace.Event) int {
			if e.IFBytes > 3 {
				return 1
			}
			return 0
		}
		rfLat := func(e trace.Event) int {
			if e.MaxSrcBytes() > 1 {
				return 1
			}
			return 0
		}
		memLat := func(e trace.Event) int {
			if e.Inst.IsLoad() && e.MemBytes > 1 {
				return 1
			}
			return 0
		}
		return refSpec{
			occ:     ones(5),
			lat:     []occFunc{ifLat, rfLat, nil, memLat, nil},
			pcExtra: pcExtraByte,
		}
	case kindCompressedOcc:
		rfOcc := func(e trace.Event) int {
			if e.MaxSrcBytes() > 1 {
				return 2
			}
			return 1
		}
		memOcc := func(e trace.Event) int {
			if e.Inst.IsLoad() && e.MemBytes > 1 {
				return 2
			}
			return 1
		}
		return refSpec{occ: []occFunc{ifOcc3Banks, rfOcc, one, memOcc, one}, pcExtra: pcExtraByte}
	}
	panic("pipeline: no reference spec for " + m.spec.name)
}

// refState is one model's oracle-private state.
type refState struct {
	spec refSpec
	hier *mem.Hierarchy
}

// refStates maps each model the oracle has driven to its private state;
// models are created per test, so the map only grows for a test binary's
// lifetime.
var refStates sync.Map // *Model -> *refState

// refFor returns m's oracle state, over the default hierarchy unless
// withRefHierarchy registered another.
func refFor(m *Model) *refState {
	if st, ok := refStates.Load(m); ok {
		return st.(*refState)
	}
	st, _ := refStates.LoadOrStore(m, &refState{
		spec: refSpecFor(m),
		hier: mem.NewHierarchy(mem.DefaultHierarchyConfig()),
	})
	return st.(*refState)
}

// withRefHierarchy makes the oracle schedule m over geometry cfg, the
// reference twin of SetHierarchy.
func withRefHierarchy(m *Model, cfg mem.HierarchyConfig) *Model {
	refStates.Store(m, &refState{spec: refSpecFor(m), hier: mem.NewHierarchy(cfg)})
	return m
}

// oracleReplay feeds every row of src to the oracle m, one Event at a time.
func oracleReplay(src trace.Replayer, m *Model) error {
	var ev trace.Event
	return src.ReplayBlocks(testCtx, testRecoder, blockFunc(func(b *trace.Block) {
		for i := range b.Slot {
			b.EventAt(i, &ev)
			m.Consume(ev)
		}
	}))
}

// Consume is the reference scheduler: schedules one instruction.
func (m *Model) Consume(e trace.Event) {
	if m.spec.frontend != nil {
		m.consumeFrontend(e)
		return
	}
	ref := refFor(m)
	s := &ref.spec
	sp := &m.spec
	n := len(sp.stages)

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
	hier := ref.hier
	icStall := hier.Fetch(e.PC)
	occ[0] += icStall
	m.stall(StallICache, uint64(icStall))
	dcStall := 0
	if e.MemWidth > 0 {
		dcStall = hier.Data(e.Addr, e.Inst.IsStore())
		occ[sp.memStage] += dcStall
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
	stallIn[sp.memStage] += dcStall

	skipped := make([]bool, n)
	prevAdvance := func(i int) uint64 {
		if skipped[i-1] {
			return enter[i-1] + uint64(lat[i-1])
		}
		if sp.streaming {
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
			m.stall(stallKinds[sp.structIdx(i)], m.stageFree[i]-t)
			t = m.stageFree[i]
		}
		if p := m.prevEnter[i] + 1; m.insts > 0 && p > t {
			t = p
		}
		if i == sp.exStage {
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

	exEnter := enter[sp.exStage]
	exEnd := exEnter + uint64(occ[sp.exStage]) + uint64(lat[sp.exStage])

	// Publish result readiness.
	if e.HasDest {
		var first, full uint64
		if e.Inst.IsLoad() {
			memEnd := enter[sp.memStage] + uint64(occ[sp.memStage]) + uint64(lat[sp.memStage])
			first = enter[sp.memStage] + uint64(dcStall) + 1
			full = memEnd
		} else {
			first = exEnter + 1
			slices := occ[sp.exStage]
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
		m.observer(e.Inst, e.PC, enter, occ, skipped)
	}
	m.insts++
}

// stall adds cycles to the oracle's stall map.
func (m *Model) stall(kind StallKind, cycles uint64) {
	if cycles > 0 {
		m.stalls[kind] += cycles
	}
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

// consumeFrontend is the oracle path of the byte-fetch models: build the
// scheduler input from the Event, with stalls from the private hierarchy,
// and run the shared core.
func (m *Model) consumeFrontend(e trace.Event) {
	in := feIn{
		size:       e.IFBytes,
		pc:         e.PC,
		rs:         uint8(e.Inst.Rs),
		rt:         uint8(e.Inst.Rt),
		dest:       uint8(e.Dest),
		readsA:     e.ReadsA,
		readsB:     e.ReadsB,
		hasDest:    e.HasDest,
		isMem:      e.MemWidth > 0,
		isLoad:     e.Inst.IsLoad(),
		writesHILO: e.Inst.WritesHILO(),
		isBranch:   e.Inst.IsBranch(),
		taken:      e.Taken,
	}
	if e.Inst.Op == isa.OpSpecial {
		switch e.Inst.Funct {
		case isa.FnJR, isa.FnJALR:
			in.isJReg = true
		case isa.FnMFHI, isa.FnMFLO:
			in.isMFHILO = true
		}
	}
	in.isJDir = e.Inst.Op == isa.OpJ || e.Inst.Op == isa.OpJAL
	hier := refFor(m).hier
	in.ic = hier.Fetch(e.PC)
	if in.isMem {
		in.dc = hier.Data(e.Addr, e.Inst.IsStore())
	}
	sched := m.feStep(&in)
	m.flushFEStalls()
	if m.observer != nil {
		enter := m.enter
		enter[0], enter[1], enter[2], enter[3], enter[4] =
			sched.fetch, sched.id, sched.ex, sched.mem, sched.wb
		occ := []int{1, 1, 1, 1 + sched.dc, 1}
		m.observer(e.Inst, e.PC, enter, occ, make([]bool, 5))
	}
}
