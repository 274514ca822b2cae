// Capture-once / replay-many trace engine.
//
// A Capture records a benchmark's retired-instruction stream into a compact
// columnar buffer so the trace can be replayed to any number of consumers
// without re-running the interpreter. The paper's methodology is exactly
// this shape: one Mediabench trace feeds every activity and timing study
// (§3), so sweeping N pipeline models should cost one execution plus N
// cheap fan-outs, not N executions.
//
// Layout. Per-instruction state is split into parallel fixed-width columns
// (six uint32 words = 24 B/instruction, enforced at ≤ MaxBytesPerInst by
// SizeBytes and a test). Everything static per instruction word — decoded
// form, source/dest register usage, memory width, sign-extended immediate —
// lives once in a statics table, keyed by the raw word value (not PC, so
// aliasing and self-modifying code are handled). The dynamic columns are:
//
//	slot    statics index, with the branch outcome in the top bit
//	pc      instruction address
//	srcA/B  register operand values (zero when the port is not read)
//	result  written-back value, or the loaded value for load-to-$zero
//	sig     the ten recoder-independent significance quantities, packed
//
// Every remaining cpu.Exec field is derived on replay: Addr = SrcA + simm,
// StoreVal = SrcB, NextPC = next instruction's PC (the interpreter retires
// in program order), destination register/flags from the statics. The
// recoder-dependent IFBytes is deliberately NOT captured: it is a pure
// function of the raw word and the recoder, so replay resolves it through a
// per-statics-slot table built once per (Capture, Recoder) pair — the same
// trace replays under any instruction recoding.
//
// Memory. Consumers may read the program's memory image (the activity
// collectors read cache-line contents at fill time), and only stores mutate
// memory during a run (syscalls write the CPU's output buffer, never
// memory). Replay therefore rebuilds the initial image and applies each
// captured store before any consumer sees its row, and no later store
// before it (see emitSpans) — making replay bit-identical to live
// interpretation, which the equivalence tests assert.
package trace

import (
	"context"
	"sync"

	"repro/internal/bench"
	"repro/internal/cpu"
	"repro/internal/icomp"
	"repro/internal/isa"
	"repro/internal/mem"
)

// MaxBytesPerInst is the capture-format budget: SizeBytes()/Len() must stay
// at or under this, enforced by test. The columnar layout currently uses
// 24 B/instruction plus the (amortized-to-nothing) statics table.
const MaxBytesPerInst = 40

// TakenBit stores the branch outcome in the slot column's top bit; the low
// 31 bits (SlotMask) index the statics table. Exported so consumers can
// decode the raw slot column.
const (
	TakenBit = 1 << 31
	SlotMask = TakenBit - 1
)

// Packed significance-column field offsets/widths. The ten quantities fit
// in 27 bits: byte counts are 0..4 (3 bits), halfword counts 0..2 (2 bits),
// ALUOps 0..8 (4 bits: mult/div count both operands' blocks), ALUHalfOps
// 0..4 (3 bits).
const (
	sigSrcBytesAShift  = 0  // 3 bits
	sigSrcBytesBShift  = 3  // 3 bits
	sigSrcHalvesAShift = 6  // 2 bits
	sigSrcHalvesBShift = 8  // 2 bits
	sigALUOpsShift     = 10 // 4 bits
	sigALUHalfShift    = 14 // 3 bits
	sigMemBytesShift   = 17 // 3 bits
	sigMemHalvesShift  = 20 // 2 bits
	sigWBBytesShift    = 22 // 3 bits
	sigWBHalvesShift   = 25 // 2 bits
)

// Static is everything about an instruction word that never changes between
// dynamic instances. The statics table is exposed to consumers as the
// per-block annotation table (Block.Statics), so its fields are exported.
type Static struct {
	Inst     isa.Inst
	Simm     uint32 // sign-extended immediate (effective-address offset)
	Dest     isa.Reg
	MemWidth uint8 // 0 for non-memory instructions
	ReadsA   bool
	ReadsB   bool
	HasDest  bool
	IsStore  bool
}

// staticSize estimates the resident bytes of one statics entry: the struct
// itself plus its raw→slot map entry (key, value, bucket overhead).
const staticSize = 96

// ifbMemoOverhead estimates the per-memo resident bytes beyond the table
// itself: the 64-byte Profile key, its map bucket share, and the slice
// header. Included in SizeBytes so the byte-budgeted trace cache sees the
// memo's real footprint.
const ifbMemoOverhead = 144

// maxIFBMemos bounds how many recoder profiles a capture memoizes fetch
// sizes for. A process normally has one or two live recodings (the static
// default and the suite-profiled one); under recoder churn — sweeps that
// build a fresh Recoder per request — the oldest memo is dropped instead of
// letting the map retain every recoding ever replayed.
const maxIFBMemos = 4

// Replayer is the read side of a trace: everything the serving and
// evaluation layers need to fan a benchmark out to consumers. It is
// satisfied by the three block sources — the fully decoded in-memory
// Capture, the mmap-backed MappedCapture (stream.go), whose replay memory is
// O(frame) instead of O(trace), and Live interpretation (live.go), which
// holds no trace at all. All three are byte-identical by test, so callers
// choose one purely on memory/latency grounds.
type Replayer interface {
	// Bench returns the benchmark the trace belongs to.
	Bench() bench.Benchmark
	// SizeBytes estimates the replayer's resident memory (what a
	// byte-budgeted cache should charge for holding it).
	SizeBytes() int
	// NewMemory rebuilds the benchmark's initial memory image, for
	// consumers that read program memory during replay.
	NewMemory() (*mem.Memory, error)
	// ClearMemos drops memoized per-recoder fetch-size tables.
	ClearMemos()
	// ReplayBlocks emits the trace without a memory image.
	ReplayBlocks(ctx context.Context, rc *icomp.Recoder, consumers ...Consumer) error
	// ReplayBlocksOn emits the trace over a caller memory image; see
	// Capture.ReplayBlocksOn for the memory-ordering contract.
	ReplayBlocksOn(ctx context.Context, m *mem.Memory, rc *icomp.Recoder, consumers ...Consumer) error
}

// ifbMemo memoizes per-slot compressed fetch sizes per recoder profile:
// IFBytes is static per (raw word, recoding), so one pass over the statics
// table serves every instruction of a replay, and keying by icomp.Profile
// (not recoder pointer) lets distinct Recoder instances with the same
// recoding share one table. order tracks insertion so the memo stays
// bounded (maxIFBMemos, oldest dropped). Both capture tiers embed one.
type ifbMemo struct {
	mu    sync.Mutex
	tabs  map[icomp.Profile][]uint8
	order []icomp.Profile
}

// tableFor returns the per-statics-slot fetch-size table under rc,
// computing it once per recoder profile.
func (mm *ifbMemo) tableFor(rc *icomp.Recoder, statics []Static) []uint8 {
	key := rc.Profile()
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if t, ok := mm.tabs[key]; ok {
		return t
	}
	t := make([]uint8, len(statics))
	for i := range statics {
		t[i] = uint8(rc.FetchBytes(statics[i].Inst.Raw))
	}
	if mm.tabs == nil {
		mm.tabs = make(map[icomp.Profile][]uint8, 1)
	}
	for len(mm.tabs) >= maxIFBMemos {
		delete(mm.tabs, mm.order[0])
		mm.order = mm.order[1:]
	}
	mm.tabs[key] = t
	mm.order = append(mm.order, key)
	return t
}

// clear drops every memoized table; replays rebuild them on demand.
func (mm *ifbMemo) clear() {
	mm.mu.Lock()
	mm.tabs = nil
	mm.order = nil
	mm.mu.Unlock()
}

// sizeBytes estimates the memo's resident footprint for a statics table of
// nStatics entries.
func (mm *ifbMemo) sizeBytes(nStatics int) int {
	mm.mu.Lock()
	n := len(mm.tabs)
	mm.mu.Unlock()
	return n * (nStatics + ifbMemoOverhead)
}

// Capture is one benchmark's recorded trace. Record it by running the
// benchmark to completion (CaptureRun); once complete it is immutable and
// safe for concurrent replays.
type Capture struct {
	bench   bench.Benchmark
	statics []Static
	slotOf  map[uint32]uint32 // raw instruction word -> statics index

	slot   []uint32 // statics index | TakenBit
	pc     []uint32
	srcA   []uint32
	srcB   []uint32
	result []uint32
	sig    []uint32

	lastNextPC uint32 // NextPC of the final instruction (no successor row)

	memo   ifbMemo  // per-recoder-profile fetch-size tables
	misses missMemo // hierarchy outcome, built by the first replay
}

// NewCapture returns an empty capture for b, ready to Record into.
func NewCapture(b bench.Benchmark) *Capture {
	return &Capture{
		bench:  b,
		slotOf: make(map[uint32]uint32, 512),
	}
}

// CaptureRun executes b to completion and records its trace. Significance
// annotation is computed (and stored) for every instruction, but no
// instruction recoding is consulted — that binding happens at replay time.
func CaptureRun(ctx context.Context, b bench.Benchmark) (*Capture, error) {
	c, err := b.NewCPU()
	if err != nil {
		return nil, err
	}
	cp := NewCapture(b)
	cp.grow(int(b.MaxInsts))
	if _, err := interpret(ctx, c, "capturing "+b.Name, b.MaxInsts, cp.Record); err != nil {
		return nil, err
	}
	if err := benchDone(c, b); err != nil {
		return nil, err
	}
	cp.Finalize()
	return cp, nil
}

// grow pre-sizes the dynamic columns. The hint is capped well below the
// runaway guard MaxInsts (which most benchmarks finish far under) so a
// capture never over-commits memory; append growth covers longer traces and
// compact trims the slack afterwards.
func (cp *Capture) grow(hint int) {
	if hint <= 0 {
		return
	}
	if hint > 1<<16 {
		hint = 1 << 16
	}
	cp.slot = make([]uint32, 0, hint)
	cp.pc = make([]uint32, 0, hint)
	cp.srcA = make([]uint32, 0, hint)
	cp.srcB = make([]uint32, 0, hint)
	cp.result = make([]uint32, 0, hint)
	cp.sig = make([]uint32, 0, hint)
}

// Finalize trims append slack so SizeBytes reflects exactly the recorded
// trace. Call it once recording is finished: CaptureRun does, and any
// capture filled through Record must be finalized before it is sized or
// cached — append growth otherwise leaves up to ~2x slack in the dynamic
// columns. Safe to call more than once; a finalized capture with no slack
// is left untouched.
func (cp *Capture) Finalize() {
	trim := func(s []uint32) []uint32 {
		if cap(s) == len(s) {
			return s
		}
		out := make([]uint32, len(s))
		copy(out, s)
		return out
	}
	cp.slot = trim(cp.slot)
	cp.pc = trim(cp.pc)
	cp.srcA = trim(cp.srcA)
	cp.srcB = trim(cp.srcB)
	cp.result = trim(cp.result)
	cp.sig = trim(cp.sig)
}

// truncate empties the dynamic columns, keeping their storage and the
// statics table: the live source's window reuse.
func (cp *Capture) truncate() {
	cp.slot = cp.slot[:0]
	cp.pc = cp.pc[:0]
	cp.srcA = cp.srcA[:0]
	cp.srcB = cp.srcB[:0]
	cp.result = cp.result[:0]
	cp.sig = cp.sig[:0]
}

// staticFor derives the statics-table entry for one decoded instruction.
// Record and the SIGCAP01 reader (capfile.go) share it, so a capture decoded
// from disk rebuilds exactly the table the original recording held.
func staticFor(in isa.Inst) Static {
	dest, hasDest := in.DestReg()
	st := Static{
		Inst:    in,
		Simm:    uint32(int32(in.Imm)),
		Dest:    dest,
		HasDest: hasDest,
		ReadsA:  in.ReadsRs(),
		ReadsB:  in.ReadsRt(),
		IsStore: in.IsStore(),
	}
	if in.IsMem() {
		st.MemWidth = uint8(in.MemBytes())
	}
	return st
}

// Record appends one retired instruction, annotating its significance.
// Instructions must arrive in retirement order.
func (cp *Capture) Record(e cpu.Exec) {
	ev := Event{Exec: e}
	annotateSig(&ev)
	idx, ok := cp.slotOf[ev.Raw]
	if !ok {
		st := staticFor(ev.Inst)
		idx = uint32(len(cp.statics))
		cp.statics = append(cp.statics, st)
		cp.slotOf[ev.Raw] = idx
	}
	sw := idx
	if ev.Taken {
		sw |= TakenBit
	}
	res := ev.Result
	if !ev.HasDest {
		// Load-to-$zero retires with Loaded set but no register write;
		// park the loaded value in the result column so replay can
		// reconstruct it. Every other dest-less instruction leaves 0 here.
		res = ev.Loaded
	}
	cp.slot = append(cp.slot, sw)
	cp.pc = append(cp.pc, ev.PC)
	cp.srcA = append(cp.srcA, ev.SrcA)
	cp.srcB = append(cp.srcB, ev.SrcB)
	cp.result = append(cp.result, res)
	cp.sig = append(cp.sig, packSig(ev))
	cp.lastNextPC = ev.NextPC
}

func packSig(ev Event) uint32 {
	return uint32(ev.SrcBytesA)<<sigSrcBytesAShift |
		uint32(ev.SrcBytesB)<<sigSrcBytesBShift |
		uint32(ev.SrcHalvesA)<<sigSrcHalvesAShift |
		uint32(ev.SrcHalvesB)<<sigSrcHalvesBShift |
		uint32(ev.ALUOps)<<sigALUOpsShift |
		uint32(ev.ALUHalfOps)<<sigALUHalfShift |
		uint32(ev.MemBytes)<<sigMemBytesShift |
		uint32(ev.MemHalves)<<sigMemHalvesShift |
		uint32(ev.WBBytes)<<sigWBBytesShift |
		uint32(ev.WBHalves)<<sigWBHalvesShift
}

// Bench returns the benchmark this capture recorded.
func (cp *Capture) Bench() bench.Benchmark { return cp.bench }

// Len returns the number of recorded instructions.
func (cp *Capture) Len() int { return len(cp.slot) }

// Statics returns the number of distinct instruction words recorded.
func (cp *Capture) Statics() int { return len(cp.statics) }

// SizeBytes estimates the capture's resident memory: the six dynamic
// columns (exact), the statics table and its lookup map (estimated per
// entry), and the per-recoder-profile fetch-size memos replays have built
// (one byte per statics slot each, plus key/bucket overhead), and the miss
// stream once a replay has published it. The memos are included so the
// byte-budgeted trace cache in internal/simsvc accounts for everything a
// cached capture actually keeps resident, not just its columns.
func (cp *Capture) SizeBytes() int {
	cols := cap(cp.slot) + cap(cp.pc) + cap(cp.srcA) + cap(cp.srcB) + cap(cp.result) + cap(cp.sig)
	return cols*4 + len(cp.statics)*staticSize + cp.memo.sizeBytes(len(cp.statics)) +
		cp.misses.sizeBytes()
}

// MissStream returns the capture's published miss stream (see misses.go),
// or nil before the first replay has completed. Callers must not
// modify it.
func (cp *Capture) MissStream() []MissEvent { return cp.misses.stream() }

// ClearMemos drops every memoized per-recoder fetch-size table, releasing
// the memory SizeBytes attributes to them. Replays rebuild tables on demand;
// the capture itself is untouched, and so is its recoder-independent miss
// stream.
func (cp *Capture) ClearMemos() { cp.memo.clear() }

// FunctCounts tallies the dynamic R-format function-code frequencies of the
// recorded trace — the per-benchmark input to the paper's Table 3 recoding,
// for free from the capture (no re-execution, no annotation).
func (cp *Capture) FunctCounts() map[isa.Funct]uint64 {
	perSlot := make([]uint64, len(cp.statics))
	for _, sw := range cp.slot {
		perSlot[sw&SlotMask]++
	}
	counts := make(map[isa.Funct]uint64)
	for i := range cp.statics {
		if st := &cp.statics[i]; st.Inst.Op == isa.OpSpecial && perSlot[i] > 0 {
			counts[st.Inst.Funct] += perSlot[i]
		}
	}
	return counts
}

// NewMemory builds the benchmark's initial memory image, for consumers
// that read program memory during replay (the activity collectors).
func (cp *Capture) NewMemory() (*mem.Memory, error) {
	c, err := cp.bench.NewCPU()
	if err != nil {
		return nil, err
	}
	return c.Mem, nil
}

// ifBytes returns the per-statics-slot compressed fetch size under rc,
// computing it once per (Capture, recoder profile). The memo holds at most
// maxIFBMemos profiles; beyond that the oldest is evicted, so a capture's
// footprint stays bounded no matter how many distinct recodings replay
// against it over its cached lifetime.
func (cp *Capture) ifBytes(rc *icomp.Recoder) []uint8 {
	return cp.memo.tableFor(rc, cp.statics)
}
