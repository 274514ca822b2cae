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
// The columns are recorded in chunks of BlockRows rows, and a chunk is the
// unit every reader walks in place: replay emits one chunk as one block,
// the SIGCAP02 encoder writes one chunk as one frame (FrameRows ==
// BlockRows), and ReadCapture decodes one frame into one chunk. So chunk =
// block = frame, rows are written once where they will stay, and only a
// finished capture's last, partial chunk is copied to its exact size. The
// sig word of a row is one lookup in its class's table (sigtable.go), keyed
// by the extension markings of its operands, its result and its adder's or
// shifter's output.
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
// before it (see emitSpans) — making replay bit-identical to streaming
// interpretation (Interpret), which the equivalence tests assert.
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
// dynamic instances: the interpreter's decode-table facts, recorded once per
// distinct word. The statics table is exposed to consumers as the per-block
// annotation table (Block.Statics).
type Static = cpu.Static

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
// satisfied by the two block sources — the fully decoded in-memory Capture
// and the mmap-backed MappedCapture (stream.go), whose replay memory is
// O(frame) instead of O(trace). The two are byte-identical by test, so
// callers choose one purely on memory/latency grounds.
type Replayer interface {
	// Bench returns the benchmark the trace belongs to.
	Bench() bench.Benchmark
	// SizeBytes estimates the replayer's resident memory (what a
	// byte-budgeted cache should charge for holding it).
	SizeBytes() int
	// NewMemory rebuilds the benchmark's initial memory image, for
	// consumers that read program memory during replay.
	NewMemory() (*mem.Memory, error)
	// ReplayBlocks emits the trace without a memory image.
	ReplayBlocks(ctx context.Context, rc *icomp.Recoder, consumers ...Consumer) error
	// ReplayBlocksOn emits the trace over a caller memory image; see
	// Capture.ReplayBlocksOn for the memory-ordering contract.
	ReplayBlocksOn(ctx context.Context, m *mem.Memory, rc *icomp.Recoder, consumers ...Consumer) error
	// FunctCounts tallies the trace's dynamic R-format function-code
	// frequencies, the per-benchmark input to the Table 3 recoding, without
	// replaying it to any consumer.
	FunctCounts() (map[isa.Funct]uint64, error)
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
	sigs    []sigSlot         // per statics slot: how its rows' sig words are computed
	slotOf  map[uint32]uint32 // raw instruction word -> statics index

	// chunks hold the dynamic columns, BlockRows rows each but the last;
	// rows counts the recorded rows, and tail is the array the chunk being
	// recorded into is cut from.
	chunks []chunk
	rows   int
	tail   *[6][BlockRows]uint32

	lastNextPC uint32 // NextPC of the final instruction (no successor row)

	memo   ifbMemo  // per-recoder-profile fetch-size tables
	misses missMemo // hierarchy outcome, built by the first replay
}

// chunk is one block of a capture's rows: the six dynamic columns in
// storage order (slot, pc, srcA, srcB, result, sig), all of one length.
type chunk [6][]uint32

// newChunk returns a chunk of n zero rows over one exact-size allocation.
func newChunk(n int) chunk {
	var ch chunk
	backing := make([]uint32, 6*n)
	for i := range ch {
		ch[i] = backing[i*n : (i+1)*n : (i+1)*n]
	}
	return ch
}

// head returns the chunk's first n rows.
func (ch chunk) head(n int) chunk {
	for i := range ch {
		ch[i] = ch[i][:n]
	}
	return ch
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

// recordRun records up to limit instructions of c into a capture of b,
// then runs check (if any) on the halted CPU, and trims the capture's last
// chunk to its rows.
func recordRun(ctx context.Context, c *cpu.CPU, b bench.Benchmark, what string, limit uint64, check func() error) (*Capture, error) {
	cp := NewCapture(b)
	_, err := interpret(ctx, c, what, limit, cp.record)
	if err == nil && check != nil {
		err = check()
	}
	if err != nil {
		return nil, err
	}
	if n := cp.rows % BlockRows; n != 0 {
		last := &cp.chunks[len(cp.chunks)-1]
		trimmed := newChunk(n)
		for i := range trimmed {
			copy(trimmed[i], last[i])
		}
		*last = trimmed
	}
	cp.tail, cp.sigs = nil, nil
	return cp, nil
}

// chunkAt returns chunk c cut to the rows recorded in it.
func (cp *Capture) chunkAt(c int) chunk {
	return cp.chunks[c].head(min(BlockRows, cp.rows-c*BlockRows))
}

// Record appends one retired instruction, annotating its significance.
// Instructions must arrive in retirement order, and only until the capture
// is complete: a capture CaptureRun, RecordCPU or ReadCapture returned
// records nothing more.
func (cp *Capture) Record(e cpu.Exec) { cp.record(&e, nil) }

// record is Record without copying the Exec: the interpreter loop retires
// every instruction through it, with d the interpreter's decode-table entry
// for the instruction (nil for a record built by hand). A row is written
// once, into the current chunk; a new chunk starts when every chunk is full.
func (cp *Capture) record(e *cpu.Exec, d *cpu.Decoded) {
	if cp.rows == len(cp.chunks)*BlockRows {
		cp.tail = new([6][BlockRows]uint32)
		var ch chunk
		for i := range ch {
			ch[i] = cp.tail[i][:]
		}
		cp.chunks = append(cp.chunks, ch)
	}
	idx := cp.slotFor(e, d)
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
	k, t := cp.rows&(BlockRows-1), cp.tail
	t[0][k] = sw
	t[1][k] = e.PC
	t[2][k] = e.SrcA
	t[3][k] = e.SrcB
	t[4][k] = res
	t[5][k] = cp.sigs[idx].word(e.SrcA, e.SrcB, res)
	cp.rows++
	cp.lastNextPC = e.NextPC
}

// slotFor returns the statics slot of e's instruction word, appending a new
// entry (and its sig recipe) the first time the word is seen. The slot is a
// function of the raw word alone, so aliasing, self-modifying code and the
// first-appearance order of the statics table are exactly those of the
// slotOf map. A decode entry d remembers the slot in d.Slot, and is trusted
// only while that slot holds the same word in this capture: raw words are
// unique in the table, so a match cannot be another word's slot, and an
// entry left by another capture or refilled by the interpreter falls back
// to the map.
func (cp *Capture) slotFor(e *cpu.Exec, d *cpu.Decoded) uint32 {
	if d != nil {
		if s := d.Slot; s != 0 && int(s) <= len(cp.statics) && cp.statics[s-1].Inst.Raw == e.Raw {
			return s - 1
		}
	}
	idx, ok := cp.slotOf[e.Raw]
	if !ok {
		idx = uint32(len(cp.statics))
		if d != nil {
			cp.statics = append(cp.statics, d.Static)
		} else {
			cp.statics = append(cp.statics, cpu.StaticOf(e.Inst))
		}
		cp.sigs = append(cp.sigs, sigSlotOf(&cp.statics[idx]))
		cp.slotOf[e.Raw] = idx
	}
	if d != nil {
		d.Slot = idx + 1
	}
	return idx
}

// Bench returns the benchmark this capture recorded.
func (cp *Capture) Bench() bench.Benchmark { return cp.bench }

// Len returns the number of recorded instructions.
func (cp *Capture) Len() int { return cp.rows }

// Statics returns the number of distinct instruction words recorded.
func (cp *Capture) Statics() int { return len(cp.statics) }

// SizeBytes estimates the capture's resident memory: the chunks' six
// dynamic columns (exact: a finished capture's last chunk holds only its
// rows), the statics table and its lookup map (estimated per entry), and
// the per-recoder-profile fetch-size memos replays have built (one byte per
// statics slot each, plus key/bucket overhead), and the miss stream once a
// replay has published it. The memos are included so the byte-budgeted
// trace cache in internal/simsvc accounts for everything a cached capture
// actually keeps resident, not just its columns.
func (cp *Capture) SizeBytes() int {
	cols := 0
	for _, ch := range cp.chunks {
		for _, col := range ch {
			cols += cap(col)
		}
	}
	return cols*4 + len(cp.statics)*staticSize + cp.memo.sizeBytes(len(cp.statics)) +
		cp.misses.sizeBytes()
}

// MissStream returns the capture's published miss stream (see misses.go),
// or nil before the first replay has completed. Callers must not
// modify it.
func (cp *Capture) MissStream() []MissEvent { return cp.misses.stream() }

// FunctCounts tallies the dynamic R-format function-code frequencies of the
// recorded trace — the per-benchmark input to the paper's Table 3 recoding,
// for free from the capture (no re-execution, no annotation). A resident
// capture's tally never fails.
func (cp *Capture) FunctCounts() (map[isa.Funct]uint64, error) {
	perSlot := make([]uint64, len(cp.statics))
	for c := range cp.chunks {
		tallySlots(perSlot, cp.chunkAt(c)[0])
	}
	return functsOf(cp.statics, perSlot), nil
}

// tallySlots counts each slot column entry against its statics slot.
func tallySlots(perSlot []uint64, slot []uint32) {
	for _, sw := range slot {
		perSlot[sw&SlotMask]++
	}
}

// functsOf folds per-statics-slot dynamic counts into per-function-code
// counts of the R-format (SPECIAL) instructions.
func functsOf(statics []Static, perSlot []uint64) map[isa.Funct]uint64 {
	counts := make(map[isa.Funct]uint64)
	for i := range statics {
		if st := &statics[i]; st.Inst.Op == isa.OpSpecial && perSlot[i] > 0 {
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
