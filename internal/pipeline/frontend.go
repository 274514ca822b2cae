// Byte-budgeted fetch frontends: the compressed-fetch model family.
//
// The seven paper models fetch one instruction per cycle regardless of its
// recoded size — §2.3's 3-byte instructions only narrow the I-cache banks.
// This file closes the loop between compression and timing: a ByteFetch(B)
// frontend delivers at most B *bytes* per cycle into a small fetch buffer,
// so recoded 3-byte instructions let a narrow path (4 B/cycle) complete
// more than one instruction's fetch per cycle, and a dual-issue-when-
// compressed variant (in the style of DRiM's pairing of compressed RISC-V
// instructions) lets two adjacent 3-byte instructions enter decode — and
// flow down the pipe — together.
//
// The frontend keeps the engine's analytical style: no cycle loop. Fetch
// completion of instruction i in a straight-line stream is
//
//	fd_i = streamBase + extra + ceil(cumBytes_i / B) - 1
//
// where streamBase is the cycle the stream (re)started, cumBytes is the
// byte total including instruction i, and extra accumulates in-stream
// delays (I-cache misses, fetch-buffer backpressure) that push every later
// byte. Control transfers end the stream: fetch resumes at the redirect
// cycle with an empty buffer, charging the skid to StallBranch exactly like
// the word-fetch engine. The backend (ID/EX/MEM/WB) uses the same
// recurrences as the baseline 5-stage machine — stage-free, no-passing,
// operand readiness on full results — so ByteFetch(4) with recoding
// disabled is cycle-for-cycle identical to baseline32 (pinned by
// TestByteFetchRawMatchesBaseline32).
//
// The fetch buffer holds fetched-but-not-yet-decoded instruction bytes.
// When admitting instruction i would push its occupancy past the capacity,
// the fetch unit waits for the oldest buffered instruction to decode,
// charging StallFetchBuf; the delay joins `extra` so successors inherit it.
//
// Dual issue pairs the current instruction with its predecessor ex post:
// if the predecessor issued alone at cycle T, the current instruction's
// fetch completed before T, both are 3-byte recodings, they are not both
// memory operations, and no intra-pair register (or HI/LO) dependence
// exists, the pair shares the decode cycle and may share each later stage's
// cycle (at most two per stage; the MEM port is effectively single because
// pairs never contain two memory operations, and WB gains a second write
// port). A pair splits naturally when operand readiness pushes the second
// instruction's EX entry past its partner's.
package pipeline

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/isa"
	"repro/internal/trace"
)

// feBufCap is the fetch-buffer capacity in bytes, sized like RVCoreP-32IC's
// small prefetch queue: four uncompressed words. It must be at least one
// uncompressed instruction (4 bytes) for the backpressure loop to progress.
const feBufCap = 16

// frontendSpec parameterizes a byte-budgeted fetch unit.
type frontendSpec struct {
	bytes  int  // fetch bandwidth, bytes per cycle
	bufCap int  // fetch-buffer capacity, bytes
	dual   bool // dual-issue-when-compressed pairing
	raw    bool // recoding disabled: every instruction fetches 4 bytes
}

// FetchUnitStats are the frontend counters of one byte-fetch model over one
// trace. All fields are totals; IntoDecodeIPC derives the issue rate.
type FetchUnitStats struct {
	BytesPerCycle int    // configured fetch bandwidth
	BufferBytes   int    // configured fetch-buffer capacity
	IssueCycles   uint64 // distinct cycles in which decode accepted instructions
	DualIssued    uint64 // instruction pairs that shared a decode cycle
	BufferStalls  uint64 // fetch cycles lost to a full fetch buffer
	MaxOccupancy  uint64 // peak fetch-buffer occupancy observed, bytes
}

// IntoDecodeIPC is the mean number of instructions entering decode per
// decode-accepting cycle: exactly 1.0 for single-issue frontends, above it
// when compressed pairs dual-issue.
func (f FetchUnitStats) IntoDecodeIPC(insts uint64) float64 {
	if f.IssueCycles == 0 {
		return 0
	}
	return float64(insts) / float64(f.IssueCycles)
}

// FetchUnit returns the byte-fetch frontend counters, or nil for the
// word-fetch models.
func (m *Model) FetchUnit() *FetchUnitStats {
	if m.spec.frontend == nil {
		return nil
	}
	st := m.fe.stats
	return &st
}

// feEntry is one fetched-but-undecoded instruction in the fetch buffer:
// its bytes leave the buffer at the cycle it enters decode.
type feEntry struct {
	id    uint64 // decode-entry cycle
	bytes uint32
}

// frontendState is the byte-fetch scheduler's per-model state.
type frontendState struct {
	// Fetch stream.
	streamBase  uint64 // cycle the current straight-line stream started
	streamBytes uint64 // bytes fetched in the stream, incl. the current instruction
	extra       uint64 // accumulated in-stream delay (I-cache, buffer backpressure)
	lastFetch   uint64 // previous instruction's fetch-completion cycle
	redirect    bool   // a control transfer ended the stream; restart before next fetch

	// Fetch buffer: FIFO of undecoded instructions, head at fifo[pos].
	fifo    []feEntry
	pos     int
	drained uint64 // bytes of popped (decoded) entries in this stream

	// Backend per-stage state: last entry cycle, instructions sharing it,
	// and the MEM stage's free horizon (D-cache misses occupy it).
	lastID, lastEX, lastMEM, lastWB uint64
	idN, exN, memN, wbN             int
	memFree                         uint64

	// Previous instruction's pairing-relevant facts.
	prevSize int
	prevMem  bool
	prevDest int // -1 when no register destination
	prevHILO bool

	stalls [nStallKinds]uint64
	stats  FetchUnitStats
}

// feIn is the per-instruction input of the byte-fetch scheduler, filled
// from the kernel's slot digest (or, in the test oracle, from an Event).
// ic and dc are the row's cache stalls.
type feIn struct {
	size       int
	ic, dc     int
	pc         uint32
	rs, rt     uint8
	dest       uint8
	readsA     bool
	readsB     bool
	hasDest    bool
	isMem      bool
	isLoad     bool
	writesHILO bool
	isMFHILO   bool
	isBranch   bool
	isJReg     bool
	isJDir     bool
	taken      bool
}

// feSched reports one instruction's scheduled stage-entry cycles. The
// kernel ignores it (observeFE reads the same cycles off the scheduler
// state); the test oracle reports it, which checks observeFE.
type feSched struct {
	fetch, id, ex, mem, wb uint64
	dc                     int
	paired                 bool
}

func ceilDiv(a, b uint64) uint64 { return (a + b - 1) / b }

// feStep schedules one instruction through the byte-budgeted frontend and
// the 5-stage backend.
func (m *Model) feStep(in *feIn) feSched {
	fe := m.fe
	cfg := m.spec.frontend
	size := uint64(in.size)
	if cfg.raw {
		size = 4
	}

	ic, dc := in.ic, in.dc
	fe.stalls[stICache] += uint64(ic)
	fe.stalls[stDCache] += uint64(dc)

	// --- fetch: restart the stream after a control transfer ---
	if fe.redirect {
		restart := fe.lastFetch + 1
		if m.fetchBlocked > restart {
			fe.stalls[stBranch] += m.fetchBlocked - restart
			restart = m.fetchBlocked
		}
		fe.streamBase = restart
		fe.streamBytes = 0
		fe.extra = 0
		fe.fifo = fe.fifo[:0]
		fe.pos = 0
		fe.drained = 0
		fe.redirect = false
	}

	// Fetch completion: bandwidth recurrence plus buffer admission.
	fe.extra += uint64(ic)
	fe.streamBytes += size
	natural := fe.streamBase + fe.extra + ceilDiv(fe.streamBytes, uint64(cfg.bytes)) - 1
	fd := natural
	for {
		for fe.pos < len(fe.fifo) && fe.fifo[fe.pos].id <= fd {
			fe.drained += uint64(fe.fifo[fe.pos].bytes)
			fe.pos++
		}
		pending := fe.streamBytes - fe.drained
		if pending <= uint64(cfg.bufCap) {
			if pending > fe.stats.MaxOccupancy {
				fe.stats.MaxOccupancy = pending
			}
			break
		}
		// Buffer full: the next byte slot opens when the oldest buffered
		// instruction decodes.
		next := fe.fifo[fe.pos].id
		fe.stalls[stFetchBuf] += next - fd
		fe.stats.BufferStalls += next - fd
		fd = next
	}
	fe.extra += fd - natural
	fe.lastFetch = fd

	// --- decode: dual-issue pairing, then the struct-RF rule ---
	idC := fd + 1
	paired := cfg.dual && m.insts > 0 && fe.idN == 1 && idC <= fe.lastID &&
		size == 3 && fe.prevSize == 3 &&
		!(fe.prevMem && in.isMem) &&
		!(fe.prevDest >= 0 && ((in.readsA && int(in.rs) == fe.prevDest) ||
			(in.readsB && int(in.rt) == fe.prevDest))) &&
		!(fe.prevHILO && in.isMFHILO)
	if paired {
		idC = fe.lastID
		fe.idN = 2
		fe.stats.DualIssued++
	} else {
		if free := fe.lastID + 1; m.insts > 0 && free > idC {
			fe.stalls[stStructRF] += free - idC
			idC = free
		}
		fe.lastID = idC
		fe.idN = 1
		fe.stats.IssueCycles++
	}
	if fe.pos > 0 && fe.pos == len(fe.fifo) {
		fe.fifo = fe.fifo[:0]
		fe.pos = 0
	}
	fe.fifo = append(fe.fifo, feEntry{id: idC, bytes: uint32(size)})

	// --- EX: pair sharing, stage-free, operand readiness ---
	together := paired
	exC := idC + 1
	shareEX := together && fe.exN < 2 && fe.lastEX >= exC
	if shareEX {
		exC = fe.lastEX
	} else if free := fe.lastEX + 1; m.insts > 0 && free > exC {
		fe.stalls[stStructEX] += free - exC
		exC = free
	}
	if ready := m.feOperandReady(in); ready > exC {
		fe.stalls[stData] += ready - exC
		exC = ready
		shareEX = false // readiness split the pair at EX
	}
	if shareEX {
		fe.exN++
	} else {
		fe.lastEX = exC
		fe.exN = 1
	}
	together = together && shareEX

	// --- MEM: at most one memory operation per pair ---
	memC := exC + 1
	shareMEM := together && fe.memN < 2 && fe.lastMEM >= memC
	if shareMEM {
		memC = fe.lastMEM
	} else if m.insts > 0 && fe.memFree > memC {
		fe.stalls[stStructMEM] += fe.memFree - memC
		memC = fe.memFree
	}
	if shareMEM {
		fe.memN++
	} else {
		fe.lastMEM = memC
		fe.memN = 1
	}
	if free := memC + 1 + uint64(dc); free > fe.memFree {
		fe.memFree = free
	}
	together = together && shareMEM

	// --- WB: paired instructions may use both write ports ---
	wbC := memC + 1 + uint64(dc)
	shareWB := together && fe.wbN < 2 && fe.lastWB >= wbC
	if shareWB {
		wbC = fe.lastWB
		fe.wbN++
	} else {
		if free := fe.lastWB + 1; m.insts > 0 && free > wbC {
			fe.stalls[stStructWB] += free - wbC
			wbC = free
		}
		fe.lastWB = wbC
		fe.wbN = 1
	}

	// Result readiness: full-word forwarding like the baseline machine.
	if in.hasDest {
		full := exC + 1
		if in.isLoad {
			full = memC + 1 + uint64(dc)
		}
		m.readyFirst[in.dest] = full
		m.readyFull[in.dest] = full
	}
	if in.writesHILO {
		m.hiloFull = exC + 1
	}

	// Control flow: branches and register jumps resolve at the end of EX,
	// J/JAL redirect at the end of decode. With the optional predictor a
	// correctly predicted not-taken branch leaves the stream running.
	switch {
	case in.isBranch:
		resolve := exC + 1
		block := true
		if m.pred != nil {
			predicted := m.pred.predict(in.pc)
			m.pred.update(in.pc, predicted, in.taken)
			switch {
			case predicted == in.taken && !in.taken:
				block = false // correct fall-through: fetch never breaks
			case predicted == in.taken:
				resolve = idC + 1 // BTB redirect at the end of decode
			}
		}
		if block {
			m.fetchBlocked = resolve
			fe.redirect = true
		}
	case in.isJReg:
		m.fetchBlocked = exC + 1
		fe.redirect = true
	case in.isJDir:
		m.fetchBlocked = idC + 1
		fe.redirect = true
	}

	if end := wbC + 1; end > m.cycles {
		m.cycles = end
	}

	fe.prevSize = int(size)
	fe.prevMem = in.isMem
	fe.prevDest = -1
	if in.hasDest {
		fe.prevDest = int(in.dest)
	}
	fe.prevHILO = in.writesHILO
	m.insts++
	return feSched{fetch: fd, id: idC, ex: exC, mem: memC, wb: wbC, dc: dc, paired: paired}
}

// feOperandReady is operand readiness for the frontend backend: full-word
// forwarding, plus the HI/LO horizon for MFHI/MFLO.
func (m *Model) feOperandReady(in *feIn) uint64 {
	var ready uint64
	if in.readsA && m.readyFull[in.rs] > ready {
		ready = m.readyFull[in.rs]
	}
	if in.readsB && m.readyFull[in.rt] > ready {
		ready = m.readyFull[in.rt]
	}
	if in.isMFHILO && m.hiloFull > ready {
		ready = m.hiloFull
	}
	return ready
}

// flushFEStalls merges the frontend's array tallies into the Result map.
func (m *Model) flushFEStalls() {
	for i, v := range m.fe.stalls {
		if v > 0 {
			m.stalls[stallKinds[i]] += v
			m.fe.stalls[i] = 0
		}
	}
}

// observeFE reports the instruction feStep just scheduled to the Timeline
// observer: its stage entries are the scheduler's last-entry horizons
// (a paired instruction shares them), and dc its D-cache stall.
func (m *Model) observeFE(in isa.Inst, pc uint32, dc int) {
	fe := m.fe
	enter := m.enter
	enter[0], enter[1], enter[2], enter[3], enter[4] =
		fe.lastFetch, fe.lastID, fe.lastEX, fe.lastMEM, fe.lastWB
	occ := []int{1, 1, 1, 1 + dc, 1}
	m.observer(in, pc, enter, occ, make([]bool, 5))
}

// consumeFrontendBlock is the byte-fetch kernel: per row, fill the
// scheduler input from the slot digest and columns, with cache stalls from
// ms (the block's miss events), and run feStep.
func (m *Model) consumeFrontendBlock(blk *trace.Block, ms []trace.MissEvent) {
	bs := m.ensureBatch(blk)
	var in feIn
	n := len(blk.Slot)
	for i := 0; i < n; i++ {
		sw := blk.Slot[i]
		si := &bs.slots[sw&trace.SlotMask]
		fl := si.flags
		in = feIn{
			size:       int(si.ifb),
			pc:         blk.PC[i],
			rs:         si.rs,
			rt:         si.rt,
			dest:       si.dest,
			readsA:     fl&sfReadsA != 0,
			readsB:     fl&sfReadsB != 0,
			hasDest:    fl&sfHasDest != 0,
			isMem:      fl&sfIsMem != 0,
			isLoad:     fl&sfIsLoad != 0,
			writesHILO: fl&sfWritesHILO != 0,
			isMFHILO:   fl&sfIsMFHILO != 0,
			isBranch:   fl&sfIsBranch != 0,
			isJReg:     fl&sfIsJReg != 0,
			isJDir:     fl&sfIsJDir != 0,
			taken:      sw&trace.TakenBit != 0,
		}
		if len(ms) > 0 && int(ms[0].Row) == blk.Start+i {
			in.ic, in.dc = int(ms[0].IC), int(ms[0].DC)
			ms = ms[1:]
		}
		m.feStep(&in)
		if m.observer != nil {
			m.observeFE(blk.Statics[sw&trace.SlotMask].Inst, in.pc, in.dc)
		}
	}
	m.flushFEStalls()
}

// Canonical byte-fetch model names. New() additionally resolves any
// parameterized spelling — "bytefetch<B>", "bytefetch<B>-raw", "dualc<B>"
// for 1 <= B <= 64 — so sweeps can probe widths outside the advertised set.
const (
	NameByteFetch2    = "bytefetch2"
	NameByteFetch3    = "bytefetch3"
	NameByteFetch4    = "bytefetch4"
	NameByteFetch4Raw = "bytefetch4-raw"
	NameDualCompress4 = "dualc4"
)

// maxFetchBytes bounds the parameterized fetch bandwidth.
const maxFetchBytes = 64

// NewByteFetch builds a byte-budgeted fetch frontend over the baseline
// 5-stage backend: bytes per cycle of fetch bandwidth, a 16-byte fetch
// buffer, optional dual-issue-when-compressed pairing, and optionally raw
// (recoding disabled — every instruction fetches 4 bytes; at 4 B/cycle this
// is cycle-for-cycle the baseline32 machine).
func NewByteFetch(bytes int, dual, raw bool) *Model {
	if bytes < 1 || bytes > maxFetchBytes {
		return nil
	}
	name := fmt.Sprintf("bytefetch%d", bytes)
	if dual {
		name = fmt.Sprintf("dualc%d", bytes)
	}
	if raw {
		name += "-raw"
	}
	m := newModel(spec{
		name:     name,
		kind:     kindByteFetch,
		stages:   []string{"IF", "ID", "EX", "MEM", "WB"},
		exStage:  2,
		memStage: 3,
		wbStage:  4,
		frontend: &frontendSpec{bytes: bytes, bufCap: feBufCap, dual: dual, raw: raw},
	})
	m.fe = &frontendState{prevDest: -1}
	m.fe.stats.BytesPerCycle = bytes
	m.fe.stats.BufferBytes = feBufCap
	return m
}

// parseByteFetchName resolves a parameterized byte-fetch model name, or
// ok=false if name is not of that family.
func parseByteFetchName(name string) (bytes int, dual, raw bool, ok bool) {
	rest, dualName := strings.CutPrefix(name, "dualc")
	if !dualName {
		rest, ok = strings.CutPrefix(name, "bytefetch")
		if !ok {
			return 0, false, false, false
		}
	}
	rest, raw = strings.CutSuffix(rest, "-raw")
	b, err := strconv.Atoi(rest)
	if err != nil || b < 1 || b > maxFetchBytes || rest != strconv.Itoa(b) {
		return 0, false, false, false
	}
	return b, dualName, raw, true
}
