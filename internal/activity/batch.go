// Block consumption: the activity collector's one kernel.
//
// ConsumeBlock reads the capture columns directly — significance counts are
// unpacked from the sig column with branch-free shifts (trace.PackedSig) and
// no per-instruction Event is built. The event-at-a-time reference it is
// pinned to lives in oracle_test.go (TestCollectorBatchIdentical).
//
// Collectors read cache-line contents from the program memory image at fill
// time, so they must be fed over the benchmark's initial image
// (ReplayBlocksOn): the engine's store-delimited spans guarantee a row's
// fill never observes a later row's store. Which rows fill or write back
// comes from the block's miss stream (trace.Block.Misses), so the collector
// runs no cache simulation of its own.
package activity

import (
	"repro/internal/icomp"
	"repro/internal/trace"
)

// ConsumeBlock implements trace.Consumer.
func (c *Collector) ConsumeBlock(b *trace.Block) {
	lineI := hierCfg.L1I.LineBytes
	lineD := hierCfg.L1D.LineBytes
	ms := b.Misses
	n := len(b.Slot)
	for i := 0; i < n; i++ {
		sw := b.Slot[i]
		st := &b.Statics[sw&trace.SlotMask]
		sg := trace.PackedSig(b.Sig[i])
		pc := b.PC[i]
		c.counts.Insts++
		var miss uint8
		if len(ms) > 0 && int(ms[0].Row) == b.Start+i {
			miss = ms[0].Flags
			ms = ms[1:]
		}

		// Instruction fetch: word read plus the extension bit; fills move
		// the whole line in both machines.
		ifBits := 8*int(b.IFB[sw&trace.SlotMask]) + icomp.FetchExtBits
		fetchBase, fetchComp := baselineWord, ifBits
		if miss&trace.MissIFill != 0 {
			fb, fc := c.lineFillBits(pc, lineI, true)
			fetchBase += fb
			fetchComp += fc
		}
		c.counts.Fetch.Add(fetchBase, fetchComp)

		// PC increment.
		nextPC := b.EndNextPC
		if i+1 < n {
			nextPC = b.PC[i+1]
		}
		c.counts.PCIncr.Add(baselineWord, c.blockBits(c.pcBlocks(pc, nextPC)))

		// Register file reads.
		var readBase, readComp, srcBitsA, srcBitsB int
		if st.ReadsA {
			readBase += baselineWord
			srcBitsA = c.storedBits(c.storedBlocks(sg.SrcBytesA(), sg.SrcHalvesA(), b.SrcA[i]))
			readComp += srcBitsA
		}
		if st.ReadsB {
			readBase += baselineWord
			srcBitsB = c.storedBits(c.storedBlocks(sg.SrcBytesB(), sg.SrcHalvesB(), b.SrcB[i]))
			readComp += srcBitsB
		}
		c.counts.RFRead.Add(readBase, readComp)

		// ALU.
		aluOps := sg.ALUOps()
		if c.g == 2 {
			aluOps = sg.ALUHalfOps()
		}
		c.counts.ALU.Add(baselineWord, c.blockBits(aluOps))

		// Data cache.
		memBlocks := 0
		if st.MemWidth > 0 {
			addr := b.SrcA[i] + st.Simm
			memVal := b.Result[i] // loaded value for loads (incl. load-to-$zero)
			if st.IsStore {
				memVal = b.SrcB[i]
			}
			memBlocks = c.memBlocksVal(sg.MemBytes(), sg.MemHalves(), memVal, int(st.MemWidth))

			dataBase := baselineWord
			if st.IsStore {
				dataBase = 8 * int(st.MemWidth) // byte-enables exist in the baseline
			}
			dataComp := c.storedBits(memBlocks)
			if miss&trace.MissDFill != 0 {
				fb, fc := c.lineFillBits(addr, lineD, false)
				dataBase += fb
				dataComp += fc
			}
			if miss&trace.MissDWriteback != 0 {
				// Dirty victim pushed to L2: approximate its contents with
				// the current memory image (stores have already landed).
				fb, fc := c.lineFillBits(addr, lineD, false)
				dataBase += fb
				dataComp += fc
			}
			c.counts.DCacheData.Add(dataBase, dataComp)
			// Tags are not compressed: equal activity on both machines.
			c.counts.DCacheTag.Add(c.dataTagBits, c.dataTagBits)
		}

		// Register write-back.
		wbBlocks := 0
		if st.HasDest {
			wbBlocks = c.storedBlocks(sg.WBBytes(), sg.WBHalves(), b.Result[i])
			c.counts.RFWrite.Add(baselineWord, c.storedBits(wbBlocks))
		}

		// Pipeline latches: instruction word, both operands, EX output, MEM
		// output.
		latchComp := ifBits
		if st.ReadsA {
			latchComp += srcBitsA
		}
		if st.ReadsB {
			latchComp += srcBitsB
		}
		var exOut int
		switch {
		case st.HasDest:
			exOut = wbBlocks
		case st.IsStore:
			exOut = c.sigBlocks(b.SrcB[i])
		default:
			exOut = 1
		}
		latchComp += c.storedBits(exOut)
		memOut := exOut
		if st.Inst.IsLoad() {
			memOut = memBlocks
		}
		latchComp += c.storedBits(memOut)
		c.counts.Latch.Add(baselineLatch, latchComp)
	}
}
