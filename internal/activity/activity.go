// Package activity implements the paper's trace-driven activity study
// (§2.9): per-pipeline-stage counts of bits that are read, written, operated
// on, or latched, for a conventional 32-bit pipeline versus the
// significance-compressed pipeline, at byte (Table 5) and halfword
// (Table 6) granularity.
package activity

import (
	"repro/internal/icomp"
	"repro/internal/mem"
	"repro/internal/sig"
)

// StageBits accumulates baseline and compressed bit counts for one stage.
type StageBits struct {
	Baseline   uint64
	Compressed uint64
}

// Add accumulates one event's bits.
func (s *StageBits) Add(baseline, compressed int) {
	s.Baseline += uint64(baseline)
	s.Compressed += uint64(compressed)
}

// Reduction returns the percent activity saving (0 when idle).
func (s StageBits) Reduction() float64 {
	if s.Baseline == 0 {
		return 0
	}
	return 100 * (1 - float64(s.Compressed)/float64(s.Baseline))
}

// Counts carries the per-stage tallies of one benchmark run — the columns
// of the paper's Tables 5 and 6.
type Counts struct {
	Fetch      StageBits // instruction fetch (I-cache reads + fills)
	RFRead     StageBits // register file read ports
	RFWrite    StageBits // register write-back
	ALU        StageBits
	DCacheData StageBits // data array: loads, stores, fills, writebacks
	DCacheTag  StageBits // tag array
	PCIncr     StageBits // PC increment / redirect
	Latch      StageBits // inter-stage pipeline latches
	Insts      uint64
}

const (
	baselineWord  = 32
	baselineLatch = 160 // IF(32) + two operands(64) + EX out(32) + MEM out(32)
)

// Collector consumes trace blocks and accumulates Counts. It needs the
// cache hierarchy's fills and writebacks (for fill and tag accounting),
// which it reads from the block's miss stream, and reads line contents from
// the running program's memory at fill time, which is when the paper
// generates extension bits ("new extension bit values are generated only
// when there is a cache line filled from main memory", §1).
type Collector struct {
	g      int // block size in bytes: 1 or 2
	scheme Scheme
	rc     *icomp.Recoder
	memory *mem.Memory

	dataTagBits int
	counts      Counts
}

// Scheme selects the data-compression encoding under study (§2.1).
type Scheme int

// Available schemes.
const (
	// Scheme3 is the paper's primary choice: three extension bits, one per
	// upper byte, allowing internal extension bytes (9% overhead).
	Scheme3 Scheme = 3
	// Scheme2 is the two-bit count alternative: only contiguous
	// most-significant extension bytes compress (6% overhead).
	Scheme2 Scheme = 2
)

// NewCollector builds a collector at granularity g (1 = byte for Table 5,
// 2 = halfword for Table 6) using the paper's 3-bit scheme. memory is the
// running program's address space.
func NewCollector(g int, rc *icomp.Recoder, memory *mem.Memory) *Collector {
	return NewCollectorScheme(g, Scheme3, rc, memory)
}

// NewCollectorScheme additionally selects the extension-bit scheme (only
// meaningful at byte granularity; the halfword scheme always has a single
// bit). The 2-bit scheme affects storage and transport activity (register
// file, data cache, latches); ALU gating keeps the full per-byte marking in
// both cases, matching the paper's note that the two schemes' performance
// results "are likely to be very similar" (§2.1).
func NewCollectorScheme(g int, scheme Scheme, rc *icomp.Recoder, memory *mem.Memory) *Collector {
	c := &Collector{
		g:      g,
		scheme: scheme,
		rc:     rc,
		memory: memory,
	}
	sets := hierCfg.L1D.Size / (hierCfg.L1D.LineBytes * hierCfg.L1D.Assoc)
	c.dataTagBits = 32 - log2(sets) - log2(hierCfg.L1D.LineBytes)
	return c
}

// hierCfg is the memory hierarchy every collector models: the paper's, which
// is also the one the trace's miss stream describes.
var hierCfg = mem.DefaultHierarchyConfig()

func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// sigBlocks returns stored blocks of v under the collector's granularity
// and scheme.
func (c *Collector) sigBlocks(v uint32) int {
	if c.g == 2 {
		return sig.SigHalves(v)
	}
	if c.scheme == Scheme2 {
		return sig.SigBytes(v)
	}
	return sig.Ext3Of(v).SigByteCount()
}

// blockBits converts blocks to datapath bits.
func (c *Collector) blockBits(blocks int) int { return 8 * c.g * blocks }

// storedBits is blockBits plus the extension overhead of one word.
func (c *Collector) storedBits(blocks int) int { return c.blockBits(blocks) + c.extBits() }

// extBits returns the per-word extension overhead of the collector.
func (c *Collector) extBits() int {
	if c.g == 2 {
		return sig.ExtHBits
	}
	if c.scheme == Scheme2 {
		return sig.Ext2Bits
	}
	return sig.Ext3Bits
}

// lineFillBits computes baseline and compressed bits to move one cache line
// through a data array, reading the line's current contents.
func (c *Collector) lineFillBits(addr uint32, line int, instruction bool) (int, int) {
	base := addr &^ uint32(line-1)
	baseline := 8 * line
	compressed := 0
	for off := 0; off < line; off += 4 {
		w := c.memory.Load32(base + uint32(off))
		if instruction {
			compressed += c.rc.FetchBits(w)
		} else {
			compressed += c.storedBits(c.sigBlocks(w))
		}
	}
	return baseline, compressed
}

// pcBlocks returns how many blocks of the PC change between consecutive
// fetch addresses (the serial PC unit processes low-order blocks until the
// carry dies out; a redirect rewrites up to the highest differing block).
func (c *Collector) pcBlocks(old, new uint32) int {
	diff := old ^ new
	if diff == 0 {
		return 1
	}
	blocks := 4 / c.g
	highest := 0
	for i := 0; i < blocks; i++ {
		mask := uint32(1)<<(8*c.g) - 1
		if (diff>>(8*c.g*i))&mask != 0 {
			highest = i
		}
	}
	return highest + 1
}

// storedBlocks selects the stored-block count for a register-file or
// write-back value under the collector's granularity and scheme: the
// annotated halfword count at g=2, a fresh byte count of the raw value under
// the 2-bit scheme, the annotated 3-bit byte count otherwise.
func (c *Collector) storedBlocks(bytes3, halves int, raw uint32) int {
	if c.g == 2 {
		return halves
	}
	if c.scheme == Scheme2 {
		return sig.SigBytes(raw)
	}
	return bytes3
}

// memBlocksVal returns the significant units a data access of the given
// width moves for value v under the collector's scheme.
func (c *Collector) memBlocksVal(memBytes, memHalves int, v uint32, width int) int {
	if c.g == 2 {
		return memHalves
	}
	if c.scheme == Scheme2 {
		n := sig.SigBytes(v)
		if n > width {
			n = width
		}
		return n
	}
	return memBytes
}

// Counts returns the accumulated tallies.
func (c *Collector) Counts() Counts { return c.counts }

// Stages lists the stage columns in Table 5/6 order.
func Stages() []string {
	return []string{"Fetch", "RFread", "RFwrite", "ALU", "D-cache data", "D-cache tag", "PCincrement", "Latches"}
}

// Row renders the reductions in Stages order.
func (c Counts) Row() []float64 {
	return []float64{
		c.Fetch.Reduction(),
		c.RFRead.Reduction(),
		c.RFWrite.Reduction(),
		c.ALU.Reduction(),
		c.DCacheData.Reduction(),
		c.DCacheTag.Reduction(),
		c.PCIncr.Reduction(),
		c.Latch.Reduction(),
	}
}
