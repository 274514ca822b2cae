package activity

// The reference oracles: event-at-a-time twins of every collector's
// ConsumeBlock kernel. Each reads the instruction from a materialized
// trace.Event; the activity Collector's simulates a private mem.Hierarchy
// for fills and writebacks instead of reading the block's miss stream.
// They live in a test file so production has exactly one kernel per
// collector.

import (
	"context"
	"sort"
	"sync"

	"repro/internal/bench"
	"repro/internal/cpu"
	"repro/internal/icomp"
	"repro/internal/mem"
	"repro/internal/sig"
	"repro/internal/trace"
)

// refHiers maps each collector the oracle has driven to its private
// hierarchy.
var refHiers sync.Map // *Collector -> *mem.Hierarchy

func refHier(c *Collector) *mem.Hierarchy {
	if h, ok := refHiers.Load(c); ok {
		return h.(*mem.Hierarchy)
	}
	h, _ := refHiers.LoadOrStore(c, mem.NewHierarchy(hierCfg))
	return h.(*mem.Hierarchy)
}

// annotate returns the Event a replay under rc reconstructs for e alone.
func annotate(e cpu.Exec) trace.Event {
	cp := trace.NewCapture(bench.Benchmark{})
	cp.Record(e)
	cp.Finalize()
	var ev trace.Event
	if err := cp.ReplayBlocks(context.Background(), rc, eventFunc(func(e trace.Event) { ev = e })); err != nil {
		panic(err)
	}
	return ev
}

// eventFunc adapts a per-row function to trace.Consumer, materializing each
// row as an Event: the harness that drives the oracles.
type eventFunc func(trace.Event)

func (f eventFunc) ConsumeBlock(b *trace.Block) {
	var ev trace.Event
	for i := range b.Slot {
		b.EventAt(i, &ev)
		f(ev)
	}
}

// Consume is the reference collector: tallies one instruction.
func (c *Collector) Consume(e trace.Event) {
	c.counts.Insts++

	hier := refHier(c)

	// Instruction fetch: word read plus the extension bit; fills move the
	// whole line in both machines.
	fillsBefore := hier.InstFills
	hier.Fetch(e.PC)
	fetchBase, fetchComp := baselineWord, 8*e.IFBytes+icomp.FetchExtBits
	if hier.InstFills != fillsBefore {
		fb, fc := c.lineFillBits(e.PC, hierCfg.L1I.LineBytes, true)
		fetchBase += fb
		fetchComp += fc
	}
	c.counts.Fetch.Add(fetchBase, fetchComp)

	// PC increment.
	pcBase := baselineWord
	pcComp := c.blockBits(c.pcBlocks(e.PC, e.NextPC))
	c.counts.PCIncr.Add(pcBase, pcComp)

	// Register file reads.
	var readBase, readComp int
	if e.ReadsA {
		readBase += baselineWord
		readComp += c.storedBits(c.srcBlocksA(e))
	}
	if e.ReadsB {
		readBase += baselineWord
		readComp += c.storedBits(c.srcBlocksB(e))
	}
	c.counts.RFRead.Add(readBase, readComp)

	// ALU.
	aluOps := e.ALUOps
	if c.g == 2 {
		aluOps = e.ALUHalfOps
	}
	c.counts.ALU.Add(baselineWord, c.blockBits(aluOps))

	// Data cache.
	if e.MemWidth > 0 {
		fillsBefore := hier.DataFills
		wbBefore := hier.L1D.Writeback
		hier.Data(e.Addr, e.Inst.IsStore())

		memBlocks := c.memBlocks(e)
		dataBase := baselineWord
		if e.Inst.IsStore() {
			dataBase = 8 * e.MemWidth // byte-enables exist in the baseline
		}
		dataComp := c.storedBits(memBlocks)
		if hier.DataFills != fillsBefore {
			fb, fc := c.lineFillBits(e.Addr, hierCfg.L1D.LineBytes, false)
			dataBase += fb
			dataComp += fc
		}
		if hier.L1D.Writeback != wbBefore {
			// Dirty victim pushed to L2: approximate its contents with the
			// current memory image (stores have already landed there).
			fb, fc := c.lineFillBits(e.Addr, hierCfg.L1D.LineBytes, false)
			dataBase += fb
			dataComp += fc
		}
		c.counts.DCacheData.Add(dataBase, dataComp)
		// Tags are not compressed: equal activity on both machines.
		c.counts.DCacheTag.Add(c.dataTagBits, c.dataTagBits)
	}

	// Register write-back.
	if e.HasDest {
		c.counts.RFWrite.Add(baselineWord, c.storedBits(c.wbBlocks(e)))
	}

	// Pipeline latches: instruction word, both operands, EX output, MEM
	// output.
	latchComp := 8*e.IFBytes + icomp.FetchExtBits
	if e.ReadsA {
		latchComp += c.storedBits(c.srcBlocksA(e))
	}
	if e.ReadsB {
		latchComp += c.storedBits(c.srcBlocksB(e))
	}
	exOut := c.exOutBlocks(e)
	latchComp += c.storedBits(exOut)
	memOut := exOut
	if e.Inst.IsLoad() {
		memOut = c.memBlocks(e)
	}
	latchComp += c.storedBits(memOut)
	c.counts.Latch.Add(baselineLatch, latchComp)
}

func (c *Collector) srcBlocksA(e trace.Event) int {
	return c.storedBlocks(e.SrcBytesA, e.SrcHalvesA, e.SrcA)
}

func (c *Collector) srcBlocksB(e trace.Event) int {
	return c.storedBlocks(e.SrcBytesB, e.SrcHalvesB, e.SrcB)
}

// memBlocks returns the significant units the D-cache data access moves
// under the collector's scheme.
func (c *Collector) memBlocks(e trace.Event) int {
	v := e.Loaded
	if e.Inst.IsStore() {
		v = e.StoreVal
	}
	return c.memBlocksVal(e.MemBytes, e.MemHalves, v, e.MemWidth)
}

// wbBlocks returns the significant units written back under the collector's
// scheme.
func (c *Collector) wbBlocks(e trace.Event) int {
	return c.storedBlocks(e.WBBytes, e.WBHalves, e.Result)
}

// exOutBlocks estimates the significant blocks leaving the EX stage: the
// result for writers, the store value for stores, one block otherwise.
func (c *Collector) exOutBlocks(e trace.Event) int {
	switch {
	case e.HasDest:
		return c.wbBlocks(e)
	case e.Inst.IsStore():
		return c.sigBlocks(e.StoreVal)
	default:
		return 1
	}
}

// refPatterns is the reference PatternStats: Table 1 tallied by pattern
// string, independent of the kernel's per-field counters.
type refPatterns struct {
	counts map[string]uint64
	total  uint64
}

func newRefPatterns() *refPatterns { return &refPatterns{counts: make(map[string]uint64)} }

// Consume classifies every register source operand value.
func (p *refPatterns) Consume(e trace.Event) {
	for _, v := range srcValues(e) {
		p.counts[sig.PatternOf(v)]++
		p.total++
	}
}

// State is the wire form the kernel's PatternStats.State must equal.
func (p *refPatterns) State() PatternState {
	return PatternState{Counts: p.counts, Total: p.total}
}

// srcValues returns e's register source operand values, A before B.
func srcValues(e trace.Event) []uint32 {
	var vs []uint32
	if e.ReadsA {
		vs = append(vs, e.SrcA)
	}
	if e.ReadsB {
		vs = append(vs, e.SrcB)
	}
	return vs
}

// Consume is the reference FetchStats.
func (f *FetchStats) Consume(e trace.Event) {
	f.Insts++
	f.Bytes += uint64(e.IFBytes)
	if e.IFBytes == 3 {
		f.ThreeByte++
	}
	switch e.Inst.Format().String() {
	case "R":
		f.RFormat++
	case "J":
		f.JFormat++
	default:
		f.IFormat++
		f.ImmUsers++
		if e.IFBytes == 3 {
			f.ImmFits8++
		}
	}
}

// refPartitions is the reference PartitionStats: every candidate's stored
// bits computed per value by sig.Partition.StoredBits, independent of the
// kernel's per-mask fold (StoredBits itself is pinned to the slice-based
// reference in internal/sig).
type refPartitions struct {
	names  []string
	parts  []sig.Partition
	bits   []uint64
	values uint64
}

func newRefPartitions() *refPartitions {
	cands := sig.CandidatePartitions()
	r := &refPartitions{}
	for n := range cands {
		r.names = append(r.names, n)
	}
	sort.Strings(r.names)
	for _, n := range r.names {
		r.parts = append(r.parts, cands[n])
	}
	r.bits = make([]uint64, len(r.parts))
	return r
}

// Consume tallies every register source operand value.
func (r *refPartitions) Consume(e trace.Event) {
	for _, v := range srcValues(e) {
		r.values++
		for i, p := range r.parts {
			r.bits[i] += uint64(p.StoredBits(v))
		}
	}
}

// State is the wire form the kernel's PartitionStats.State must equal.
func (r *refPartitions) State() PartitionState {
	return PartitionState{Names: r.names, Bits: r.bits, Values: r.values}
}

// refWidth64 is the reference Width64Stats: the 64-bit side classifies the
// sign-extended doubleword byte by byte.
type refWidth64 struct{ st Width64State }

// Consume tallies every register source operand value.
func (w *refWidth64) Consume(e trace.Event) {
	for _, v := range srcValues(e) {
		w.st.Values++
		w.st.Bits32 += uint64(sig.StoredBits3(v))
		w.st.Bits64 += uint64(sig.StoredBits64(sig.Extend64(v)))
	}
}

// State is the wire form the kernel's Width64Stats.State must equal.
func (w *refWidth64) State() Width64State { return w.st }

// Consume is the reference FrontendStats.
func (f *FrontendStats) Consume(e trace.Event) {
	f.consume(e.Inst, e.IFBytes, e.ReadsA, e.ReadsB, e.HasDest, e.Dest)
}
