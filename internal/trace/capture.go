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

// slotCacheBits sizes the PC-indexed slot cache in front of slotOf: 1024
// direct-mapped entries cover a benchmark's hot code.
const slotCacheBits = 10

// slotCacheEntry remembers the statics slot of the word last retired from
// one cache line's PCs. slot holds the index plus one, so the zero entry is
// empty.
type slotCacheEntry struct{ raw, slot uint32 }

// Capture is one benchmark's recorded trace. Record it by running the
// benchmark to completion (CaptureRun); once complete it is immutable and
// safe for concurrent replays.
type Capture struct {
	bench   bench.Benchmark
	statics []Static
	slotOf  map[uint32]uint32 // raw instruction word -> statics index

	// slotCache is a direct-mapped, PC-indexed cache of slotOf for
	// recording, allocated by the first record.
	slotCache *[1 << slotCacheBits]slotCacheEntry

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
	return recordRun(ctx, c, b, "capturing "+b.Name, b.MaxInsts, func() error { return benchDone(c, b) })
}

// recordRun records up to limit instructions of c into a finalized capture
// of b, then runs check (if any) on the halted CPU.
func recordRun(ctx context.Context, c *cpu.CPU, b bench.Benchmark, what string, limit uint64, check func() error) (*Capture, error) {
	r := recorder{cp: NewCapture(b)}
	_, err := interpret(ctx, c, what, limit, r.record)
	if err == nil && check != nil {
		err = check()
	}
	r.finish(err == nil)
	if err != nil {
		return nil, err
	}
	return r.cp, nil
}

// Recording chunks start at minChunkRows rows, so a short program records
// into little memory, and double up to maxChunkRows (1.5 MiB over the six
// columns).
const (
	minChunkRows = 1 << 8
	maxChunkRows = 1 << 16
)

// recorder records a capture in chunks: the capture's columns are the
// current chunk until it fills, and finish copies every chunk out once, at
// the trace's exact size. Growing the columns instead would copy a long
// trace several times over into freshly paged-in memory (append grows a
// slice this large by about 1.25x), and once more to trim the slack.
type recorder struct {
	cp   *Capture
	full [][6][]uint32 // the filled chunks, in order
	rows int           // rows in full
}

func (r *recorder) record(e *cpu.Exec) {
	if len(r.cp.slot) == cap(r.cp.slot) {
		r.next()
	}
	r.cp.record(e)
}

// next files the current chunk, if any, and starts one twice its size.
func (r *recorder) next() {
	n := min(max(2*cap(r.cp.slot), minChunkRows), maxChunkRows)
	var ch [6][]uint32
	for i, col := range r.cp.cols() {
		ch[i] = *col
		*col = make([]uint32, 0, n)
	}
	if len(ch[0]) > 0 {
		r.full = append(r.full, ch)
		r.rows += len(ch[0])
	}
}

// finish drops the chunks, first copying the recorded rows into exact-size
// columns when keep is set.
func (r *recorder) finish(keep bool) {
	for i, col := range r.cp.cols() {
		var out []uint32
		if keep {
			out = make([]uint32, r.rows+len(*col))
			k := 0
			for _, ch := range r.full {
				k += copy(out[k:], ch[i])
			}
			copy(out[k:], *col)
		}
		*col = out
	}
	r.full = nil
}

// cols returns the six dynamic columns, in storage order.
func (cp *Capture) cols() [6]*[]uint32 {
	return [6]*[]uint32{&cp.slot, &cp.pc, &cp.srcA, &cp.srcB, &cp.result, &cp.sig}
}

// grow gives the empty dynamic columns room for n rows: the live source's
// window, which is emptied whenever it fills.
func (cp *Capture) grow(n int) {
	for _, col := range cp.cols() {
		*col = make([]uint32, 0, n)
	}
}

// Finalize trims append slack so SizeBytes reflects exactly the recorded
// trace. CaptureRun and RecordCPU return captures with no slack; any
// capture filled through Record must be finalized before it is sized or
// cached — append growth otherwise leaves up to ~2x slack in the dynamic
// columns. Safe to call more than once; a finalized capture with no slack
// is left untouched.
func (cp *Capture) Finalize() {
	for _, col := range cp.cols() {
		if cap(*col) != len(*col) {
			out := make([]uint32, len(*col))
			copy(out, *col)
			*col = out
		}
	}
}

// truncate empties the dynamic columns, keeping their storage and the
// statics table: the live source's window reuse.
func (cp *Capture) truncate() {
	for _, col := range cp.cols() {
		*col = (*col)[:0]
	}
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
func (cp *Capture) Record(e cpu.Exec) { cp.record(&e) }

// record is Record without copying the Exec: the interpreter loop retires
// every instruction through it.
func (cp *Capture) record(e *cpu.Exec) {
	idx := cp.slotFor(e)
	sw := idx
	if e.Taken {
		sw |= TakenBit
	}
	res := e.Result
	if !e.HasDest {
		// Load-to-$zero retires with Loaded set but no register write;
		// park the loaded value in the result column so replay can
		// reconstruct it. Every other dest-less instruction leaves 0 here.
		res = e.Loaded
	}
	cp.slot = append(cp.slot, sw)
	cp.pc = append(cp.pc, e.PC)
	cp.srcA = append(cp.srcA, e.SrcA)
	cp.srcB = append(cp.srcB, e.SrcB)
	cp.result = append(cp.result, res)
	cp.sig = append(cp.sig, sigWord(e))
	cp.lastNextPC = e.NextPC
}

// slotFor returns the statics slot of e's instruction word, appending a new
// entry the first time the word is seen. The slot is a function of the raw
// word alone; the PC only picks the cache entry, and an entry is used only
// when it holds the same raw word, so aliasing, self-modifying code and the
// first-appearance order of the statics table are exactly those of the
// slotOf map, which every cache miss consults.
func (cp *Capture) slotFor(e *cpu.Exec) uint32 {
	if cp.slotCache == nil {
		cp.slotCache = new([1 << slotCacheBits]slotCacheEntry)
	}
	ent := &cp.slotCache[e.PC>>2&(1<<slotCacheBits-1)]
	if ent.slot != 0 && ent.raw == e.Raw {
		return ent.slot - 1
	}
	idx, ok := cp.slotOf[e.Raw]
	if !ok {
		idx = uint32(len(cp.statics))
		cp.statics = append(cp.statics, staticFor(e.Inst))
		cp.slotOf[e.Raw] = idx
	}
	*ent = slotCacheEntry{raw: e.Raw, slot: idx + 1}
	return idx
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
