// Block consumption: the timing models' one kernel.
//
// ConsumeBlock schedules each row straight from the column block: a
// per-kind case of rowCosts computes the row's stage costs from the packed
// sig word and a per-slot static digest, stepRow runs the in-order
// scheduling recurrences, stalls accumulate in a fixed array merged into
// the Result map once per block, and no per-instruction Event is built.
// The event-at-a-time reference scheduler these kernels are pinned to
// cycle-for-cycle lives in oracle_test.go (TestConsumeBlockMatchesConsume).
//
// Cache and TLB stalls come from the block's miss stream (trace.Block.Misses):
// the hierarchy's outcome is the same for every model, so the trace engine
// simulates it once per capture and the kernels never touch a cache. A
// model given its own geometry (SetHierarchy) builds its own stream per
// block with a trace.MissBuilder and runs the same kernel.
package pipeline

import (
	"repro/internal/isa"
	"repro/internal/trace"
)

// Model kinds select the stage-cost case of rowCosts. Set by the
// constructors in models.go, alternates.go and frontend.go.
const (
	kindBaseline32 = iota
	kindByteSerial
	kindHalfSerial
	kindSemiParallel
	kindSkewed
	kindSkewedBypass
	kindCompressed
	kindByteFetch
	kindCompressedOcc // ablation alternate: blocking two-cycle stages
	kindSkewedLate    // ablation alternate: branches resolve after the last slice
)

// maxStages bounds the scratch arrays (semiparallel has six stages).
const maxStages = 6

// Stall-kind indices for array accumulation.
const (
	stBranch = iota
	stICache
	stDCache
	stData
	stStructEX
	stStructRF
	stStructMEM
	stStructWB
	stStructIF
	stFetchBuf
	nStallKinds
)

// stallKinds maps the array indices back to the exported stall buckets.
var stallKinds = [nStallKinds]StallKind{
	StallBranch, StallICache, StallDCache, StallData,
	StallStructEX, StallStructRF, StallStructMEM, StallStructWB, StallStructIF,
	StallFetchBuf,
}

// structIdx maps a stage index to its structural stall bucket.
func (s *spec) structIdx(stage int) uint8 {
	switch {
	case stage == 0:
		return stStructIF
	case stage == s.exStage:
		return stStructEX
	case stage == s.memStage:
		return stStructMEM
	case stage == s.wbStage:
		return stStructWB
	default:
		return stStructRF
	}
}

type slotFlags uint16

const (
	sfReadsA slotFlags = 1 << iota
	sfReadsB
	sfHasDest
	sfIsLoad
	sfIsMem
	sfWritesHILO
	sfIsBranch
	sfIsJReg   // JR/JALR: resolves in EX like a branch
	sfIsJDir   // J/JAL: redirects at the end of decode
	sfIsMFHILO // MFHI/MFLO: serialized on the HI/LO horizon
	sfIsJump   // any jump: operands must be complete (operandReady)
)

// slotInfo is the kernel's per-statics-slot digest of everything the
// scheduler needs that is static per instruction word, including the
// recoder-dependent fetch size of the current replay.
type slotInfo struct {
	flags  slotFlags
	dest   uint8
	rs, rt uint8
	ifb    uint8
}

// rowDyn carries one row's computed stage costs from the kernel to the
// scheduler. Entries a model's kernel never writes stay zero for the
// model's lifetime (a Model has exactly one kind).
type rowDyn struct {
	occ      [maxStages]int
	lat      [maxStages]int
	skipped  [maxStages]bool
	exSlices int // cycles after EX entry until the full result exists
	brDelta  int // >= 0: resolve at exEnter+brDelta; -1: at end of EX
	ic, dc   int // I-cache and D-cache stall cycles, from the miss stream
	pc       uint32
	nextPC   uint32
	taken    bool
}

// batchState is the Model's reusable kernel scratch.
type batchState struct {
	staticsID *trace.Static // identity of the table slots was built from
	ifbID     *uint8
	slots     []slotInfo
	structIdx [maxStages]uint8
	stalls    [nStallKinds]uint64
	d         rowDyn
}

func (m *Model) ensureBatch(blk *trace.Block) *batchState {
	bs := &m.batch
	var sid *trace.Static
	if len(blk.Statics) > 0 {
		sid = &blk.Statics[0]
	}
	var iid *uint8
	if len(blk.IFB) > 0 {
		iid = &blk.IFB[0]
	}
	if bs.staticsID != sid || bs.ifbID != iid || len(bs.slots) != len(blk.Statics) {
		bs.buildSlots(blk)
		bs.staticsID, bs.ifbID = sid, iid
		for i := range m.spec.stages {
			bs.structIdx[i] = m.spec.structIdx(i)
		}
	}
	return bs
}

func (bs *batchState) buildSlots(blk *trace.Block) {
	if cap(bs.slots) < len(blk.Statics) {
		bs.slots = make([]slotInfo, len(blk.Statics))
	}
	bs.slots = bs.slots[:len(blk.Statics)]
	for i := range blk.Statics {
		st := &blk.Statics[i]
		in := st.Inst
		var fl slotFlags
		if st.ReadsA {
			fl |= sfReadsA
		}
		if st.ReadsB {
			fl |= sfReadsB
		}
		if st.HasDest {
			fl |= sfHasDest
		}
		if in.IsLoad() {
			fl |= sfIsLoad
		}
		if st.MemWidth > 0 {
			fl |= sfIsMem
		}
		if in.WritesHILO() {
			fl |= sfWritesHILO
		}
		if in.IsBranch() {
			fl |= sfIsBranch
		}
		if in.IsJump() {
			fl |= sfIsJump
		}
		if in.Op == isa.OpSpecial {
			switch in.Funct {
			case isa.FnJR, isa.FnJALR:
				fl |= sfIsJReg
			case isa.FnMFHI, isa.FnMFLO:
				fl |= sfIsMFHILO
			}
		}
		if in.Op == isa.OpJ || in.Op == isa.OpJAL {
			fl |= sfIsJDir
		}
		bs.slots[i] = slotInfo{
			flags: fl,
			dest:  uint8(st.Dest),
			rs:    uint8(in.Rs),
			rt:    uint8(in.Rt),
			ifb:   blk.IFB[i],
		}
	}
}

// ConsumeBlock implements trace.Consumer: schedules every row of the block.
func (m *Model) ConsumeBlock(blk *trace.Block) {
	ms := blk.Misses
	if m.misses != nil {
		ms = m.misses.Block(blk)
	}
	if m.spec.frontend != nil {
		m.consumeFrontendBlock(blk, ms)
		return
	}
	bs := m.ensureBatch(blk)
	d := &bs.d
	n := len(blk.Slot)
	stages := len(m.spec.stages)
	for i := 0; i < n; i++ {
		sw := blk.Slot[i]
		si := &bs.slots[sw&trace.SlotMask]
		d.ic, d.dc = 0, 0
		if len(ms) > 0 && int(ms[0].Row) == blk.Start+i {
			d.ic, d.dc = int(ms[0].IC), int(ms[0].DC)
			ms = ms[1:]
		}
		d.pc = blk.PC[i]
		if i+1 < n {
			d.nextPC = blk.PC[i+1]
		} else {
			d.nextPC = blk.EndNextPC
		}
		d.taken = sw&trace.TakenBit != 0
		m.rowCosts(si, trace.PackedSig(blk.Sig[i]), d)
		m.stepRow(si, d, bs)
		if m.observer != nil {
			m.observer(blk.Statics[sw&trace.SlotMask].Inst, d.pc, m.enter, d.occ[:stages], d.skipped[:stages])
		}
	}
	// Merge the block's stall tallies into the map once.
	for i, v := range bs.stalls {
		if v > 0 {
			m.stalls[stallKinds[i]] += v
			bs.stalls[i] = 0
		}
	}
}

// rowCosts fills d's stage costs for one row, per model kind. The
// constructors in models.go document what each design's costs model; the
// oracle in oracle_test.go restates them as closures over an Event
// (pinned by TestConsumeBlockMatchesConsume).
func (m *Model) rowCosts(si *slotInfo, sg trace.PackedSig, d *rowDyn) {
	switch m.spec.kind {
	case kindBaseline32:
		d.occ[0], d.occ[1], d.occ[2], d.occ[3], d.occ[4] = 1, 1, 1, 1, 1
		d.exSlices = 1
		d.brDelta = -1

	case kindByteSerial, kindHalfSerial:
		var msb, alu, mo, wb int
		if m.spec.kind == kindByteSerial {
			msb, alu = sg.MaxSrcBytes(), sg.ALUOps()
			mo, wb = sg.MemBytes(), sg.WBBytes()
		} else {
			msb, alu = sg.MaxSrcHalves(), sg.ALUHalfOps()
			mo, wb = sg.MemHalves(), sg.WBHalves()
		}
		if alu < 1 {
			alu = 1
		}
		ex := msb
		if alu > ex {
			ex = alu
		}
		occ0 := 1
		if si.ifb > 3 {
			occ0 = 2
		}
		g := 1
		if m.spec.kind == kindHalfSerial {
			g = 2
		}
		occ0 += pcCarry(d.pc, d.nextPC, g)
		if si.flags&sfIsMem == 0 || mo < 1 {
			mo = 1
		}
		if wb < 1 {
			wb = 1
		}
		d.occ[0], d.occ[1], d.occ[2], d.occ[3], d.occ[4] = occ0, 1, ex, mo, wb
		d.exSlices = ex
		d.brDelta = -1

	case kindSemiParallel:
		msb := sg.MaxSrcBytes()
		alu := sg.ALUOps()
		if alu < 1 {
			alu = 1
		}
		extraSrc := maxInt(1, msb/2)
		extraALU := maxInt(1, alu/2)
		occ0 := 1
		if si.ifb > 3 {
			occ0 = 2
		}
		occ0 += pcCarry(d.pc, d.nextPC, 1)
		mo := 1
		if si.flags&sfIsMem != 0 {
			if mb := sg.MemBytes(); mb > 1 {
				mo = mb
			}
		}
		d.occ[0], d.occ[1], d.occ[2] = occ0, 1, extraSrc
		d.occ[3] = maxInt(extraSrc, extraALU)
		d.occ[4] = mo
		d.occ[5] = maxInt(1, (sg.WBBytes()+1)/2)
		d.exSlices = (alu + 1) / 2
		d.brDelta = (msb + 1) / 2

	case kindSkewed, kindSkewedBypass, kindSkewedLate:
		d.occ[0], d.occ[1], d.occ[2], d.occ[3], d.occ[4], d.occ[5] = 1, 1, 1, 1, 1, 1
		msb := sg.MaxSrcBytes()
		d.brDelta = msb
		d.exSlices = 4
		switch m.spec.kind {
		case kindSkewedBypass:
			alu := sg.ALUOps()
			d.exSlices = maxInt(1, alu)
			d.skipped[3] = msb <= 1 && alu <= 1
		case kindSkewedLate:
			d.brDelta = 4
		}

	case kindCompressed:
		occ0 := 1 + pcCarry(d.pc, d.nextPC, 1)
		d.occ[0], d.occ[1], d.occ[2], d.occ[3], d.occ[4] = occ0, 1, 1, 1, 1
		d.lat[0], d.lat[1], d.lat[3] = 0, 0, 0
		if si.ifb > 3 {
			d.lat[0] = 1
		}
		if sg.MaxSrcBytes() > 1 {
			d.lat[1] = 1
		}
		if si.flags&sfIsLoad != 0 && sg.MemBytes() > 1 {
			d.lat[3] = 1
		}
		d.exSlices = 1
		d.brDelta = -1

	case kindCompressedOcc:
		occ0 := 1 + pcCarry(d.pc, d.nextPC, 1)
		if si.ifb > 3 {
			occ0++
		}
		rf, mo := 1, 1
		if sg.MaxSrcBytes() > 1 {
			rf = 2
		}
		if si.flags&sfIsLoad != 0 && sg.MemBytes() > 1 {
			mo = 2
		}
		d.occ[0], d.occ[1], d.occ[2], d.occ[3], d.occ[4] = occ0, rf, 1, mo, 1
		d.exSlices = 1
		d.brDelta = -1
	}
}

// stepRow is the scheduling core: it places one row through the stages
// given its precomputed costs and slot digest, with array stall
// accounting. The oracle's Consume (oracle_test.go) runs the same
// algorithm over an Event; change the two together.
func (m *Model) stepRow(si *slotInfo, d *rowDyn, bs *batchState) {
	s := &m.spec
	n := len(s.stages)

	icStall, dcStall := d.ic, d.dc
	if icStall > 0 {
		d.occ[0] += icStall
		bs.stalls[stICache] += uint64(icStall)
	}
	if dcStall > 0 {
		d.occ[s.memStage] += dcStall
		bs.stalls[stDCache] += uint64(dcStall)
	}

	enter := m.enter
	base := m.stageFree[0]
	if p := m.prevEnter[0] + 1; m.insts > 0 && p > base {
		base = p
	}
	if m.fetchBlocked > base {
		bs.stalls[stBranch] += m.fetchBlocked - base
		base = m.fetchBlocked
	}
	enter[0] = base

	for i := 1; i < n; i++ {
		// prevAdvance with stallIn resolved inline: the embedded cache
		// stall of stage i-1 is icStall for fetch, dcStall for MEM.
		prev := i - 1
		var t uint64
		switch {
		case d.skipped[prev]:
			t = enter[prev] + uint64(d.lat[prev])
		case s.streaming:
			sin := 0
			if prev == 0 {
				sin = icStall
			} else if prev == s.memStage {
				sin = dcStall
			}
			t = enter[prev] + 1 + uint64(sin) + uint64(d.lat[prev])
		default:
			t = enter[prev] + uint64(d.occ[prev]) + uint64(d.lat[prev])
		}
		if d.skipped[i] {
			enter[i] = t
			continue
		}
		if m.stageFree[i] > t {
			bs.stalls[bs.structIdx[i]] += m.stageFree[i] - t
			t = m.stageFree[i]
		}
		if p := m.prevEnter[i] + 1; m.insts > 0 && p > t {
			t = p
		}
		if i == s.exStage {
			if ready := m.operandReadySlot(si); ready > t {
				bs.stalls[stData] += ready - t
				t = ready
			}
		}
		enter[i] = t
	}

	for i := 0; i < n; i++ {
		if !d.skipped[i] {
			m.stageFree[i] = enter[i] + uint64(d.occ[i])
		}
		m.prevEnter[i] = enter[i]
	}

	exEnter := enter[s.exStage]
	exEnd := exEnter + uint64(d.occ[s.exStage]) + uint64(d.lat[s.exStage])

	if si.flags&sfHasDest != 0 {
		var first, full uint64
		if si.flags&sfIsLoad != 0 {
			memEnd := enter[s.memStage] + uint64(d.occ[s.memStage]) + uint64(d.lat[s.memStage])
			first = enter[s.memStage] + uint64(dcStall) + 1
			full = memEnd
		} else {
			first = exEnter + 1
			full = exEnter + uint64(d.exSlices)
		}
		if full < first {
			full = first
		}
		m.readyFirst[si.dest] = first
		m.readyFull[si.dest] = full
	}
	if si.flags&sfWritesHILO != 0 {
		m.hiloFull = exEnd
	}

	switch {
	case si.flags&sfIsBranch != 0:
		resolve := exEnd
		if d.brDelta >= 0 {
			resolve = exEnter + uint64(d.brDelta)
		}
		if m.pred != nil {
			predicted := m.pred.predict(d.pc)
			m.pred.update(d.pc, predicted, d.taken)
			switch {
			case predicted == d.taken && !d.taken:
				// Correct fall-through: fetch never stalled.
			case predicted == d.taken:
				m.fetchBlocked = enter[1] + uint64(d.occ[1])
			default:
				m.fetchBlocked = resolve
			}
		} else {
			m.fetchBlocked = resolve
		}
	case si.flags&sfIsJReg != 0:
		resolve := exEnd
		if d.brDelta >= 0 {
			resolve = exEnter + uint64(d.brDelta)
		}
		m.fetchBlocked = resolve
	case si.flags&sfIsJDir != 0:
		m.fetchBlocked = enter[1] + uint64(d.occ[1])
	}

	end := enter[n-1] + uint64(d.occ[n-1]) + uint64(d.lat[n-1])
	if end > m.cycles {
		m.cycles = end
	}
	m.insts++
}

// operandReadySlot returns the earliest cycle the EX stage may start given
// the forwarding discipline and the row's register sources.
func (m *Model) operandReadySlot(si *slotInfo) uint64 {
	var ready uint64
	full := !m.spec.streaming || si.flags&sfIsJump != 0
	use := func(r uint8) {
		var t uint64
		if full {
			t = m.readyFull[r]
		} else {
			t = m.readyFirst[r]
		}
		if t > ready {
			ready = t
		}
	}
	if si.flags&sfReadsA != 0 {
		use(si.rs)
	}
	if si.flags&sfReadsB != 0 {
		use(si.rt)
	}
	if si.flags&sfIsMFHILO != 0 && m.hiloFull > ready {
		ready = m.hiloFull
	}
	return ready
}
