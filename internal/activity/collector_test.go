package activity

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/icomp"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

var rc = icomp.MustNewRecoder(icomp.DefaultTopFuncts())

func newByteCollector() (*Collector, *mem.Memory) {
	m := mem.NewMemory()
	return NewCollector(1, rc, m), m
}

// aluExec is an addu with chosen operand values.
func aluExec(pc uint32, a, b uint32) cpu.Exec {
	raw := isa.EncodeR(isa.FnADDU, isa.RegT0, isa.RegT1, isa.RegT2, 0)
	return cpu.Exec{
		PC: pc, Raw: raw, Inst: isa.Decode(raw),
		SrcA: a, SrcB: b, ReadsA: true, ReadsB: true,
		Dest: isa.RegT2, Result: a + b, HasDest: true, NextPC: pc + 4,
	}
}

// aluEvent is aluExec as the Event a replay reconstructs.
func aluEvent(pc uint32, a, b uint32) trace.Event { return annotate(aluExec(pc, a, b)) }

func TestCollectorRFReadBits(t *testing.T) {
	c, _ := newByteCollector()
	// One-byte operands: each read costs 8 data bits + 3 ext bits vs 32.
	c.Consume(aluEvent(0x400000, 3, 4))
	got := c.Counts().RFRead
	if got.Baseline != 64 {
		t.Fatalf("baseline read bits: %d", got.Baseline)
	}
	if got.Compressed != 2*(8+3) {
		t.Fatalf("compressed read bits: %d", got.Compressed)
	}
}

func TestCollectorRFWriteBits(t *testing.T) {
	c, _ := newByteCollector()
	c.Consume(aluEvent(0x400000, 1, 1)) // result 2: one significant byte
	got := c.Counts().RFWrite
	if got.Baseline != 32 || got.Compressed != 11 {
		t.Fatalf("write bits: %d/%d", got.Compressed, got.Baseline)
	}
}

func TestCollectorALUBits(t *testing.T) {
	c, _ := newByteCollector()
	c.Consume(aluEvent(0x400000, 1, 1))
	if got := c.Counts().ALU; got.Compressed != 8 || got.Baseline != 32 {
		t.Fatalf("narrow alu bits: %d/%d", got.Compressed, got.Baseline)
	}
	c2, _ := newByteCollector()
	c2.Consume(aluEvent(0x400000, 0x12345678, 0x01010101))
	if got := c2.Counts().ALU; got.Compressed != 32 {
		t.Fatalf("wide alu bits: %d", got.Compressed)
	}
}

func TestCollectorFetchBits(t *testing.T) {
	c, _ := newByteCollector()
	c.Consume(aluEvent(0x400000, 1, 1)) // addu: compact 3-byte fetch
	got := c.Counts().Fetch
	// First fetch also fills a 32-byte line: baseline 32+256. Compressed:
	// 3 bytes + 1 ext bit + line fill of 8 zero words (each decodes as a
	// compact 3-byte sll/nop: 25 bits each).
	if got.Baseline != 32+256 {
		t.Fatalf("fetch baseline: %d", got.Baseline)
	}
	if got.Compressed != 25+8*25 {
		t.Fatalf("fetch compressed: %d", got.Compressed)
	}
	// Second fetch on the same line: no fill.
	c.Consume(aluEvent(0x400004, 1, 1))
	got = c.Counts().Fetch
	if got.Baseline != 32+256+32 || got.Compressed != 25+8*25+25 {
		t.Fatalf("second fetch: %d/%d", got.Compressed, got.Baseline)
	}
}

func TestCollectorPCIncrementBits(t *testing.T) {
	c, _ := newByteCollector()
	c.Consume(aluEvent(0x400000, 1, 1)) // PC 0x400000 -> 0x400004: 1 byte
	if got := c.Counts().PCIncr; got.Compressed != 8 || got.Baseline != 32 {
		t.Fatalf("pc bits: %d/%d", got.Compressed, got.Baseline)
	}
	// Crossing a byte boundary: 0x4000fc -> 0x400100 touches two bytes.
	c2, _ := newByteCollector()
	c2.Consume(aluEvent(0x4000fc, 1, 1))
	if got := c2.Counts().PCIncr; got.Compressed != 16 {
		t.Fatalf("carry pc bits: %d", got.Compressed)
	}
}

func TestCollectorDCacheBits(t *testing.T) {
	c, m := newByteCollector()
	// Store the value 7 (1 significant byte) as a word. The line fill
	// reads 8 words from memory (all zero: 11 bits each compressed).
	m.Store32(0x10000000, 0) // contents at fill time
	raw := isa.EncodeI(isa.OpSW, isa.RegT0, isa.RegT1, 0)
	ev := annotate(cpu.Exec{
		PC: 0x400000, Raw: raw, Inst: isa.Decode(raw),
		SrcA: 0x10000000, SrcB: 7, ReadsA: true, ReadsB: true,
		Addr: 0x10000000, MemWidth: 4, StoreVal: 7, NextPC: 0x400004,
	})
	c.Consume(ev)
	got := c.Counts().DCacheData
	// Baseline: 32 (store) + 256 (fill). Compressed: 11 (store of one
	// significant byte) + 8*11 (fill of zero words).
	if got.Baseline != 32+256 {
		t.Fatalf("dcache baseline: %d", got.Baseline)
	}
	if got.Compressed != 11+8*11 {
		t.Fatalf("dcache compressed: %d", got.Compressed)
	}
	// Tag accounting: 19 tag bits each side (8 KB DM, 32 B lines).
	tag := c.Counts().DCacheTag
	if tag.Baseline != 19 || tag.Compressed != 19 {
		t.Fatalf("tag bits: %d/%d", tag.Compressed, tag.Baseline)
	}
}

func TestCollectorLatchBits(t *testing.T) {
	c, _ := newByteCollector()
	c.Consume(aluEvent(0x400000, 1, 1))
	got := c.Counts().Latch
	if got.Baseline != 160 {
		t.Fatalf("latch baseline: %d", got.Baseline)
	}
	// IF 25 + two operands 11 each + EX out 11 + MEM passthrough 11 = 69.
	if got.Compressed != 25+11+11+11+11 {
		t.Fatalf("latch compressed: %d", got.Compressed)
	}
}

func TestCollectorScheme2StorageBits(t *testing.T) {
	m := mem.NewMemory()
	c2 := NewCollectorScheme(1, Scheme2, rc, m)
	// Value 0x10000009 ("sees"): 3-bit scheme stores 2 bytes; 2-bit scheme
	// cannot skip the internal zeros and stores 4.
	raw := isa.EncodeR(isa.FnADDU, isa.RegT0, isa.RegT1, isa.RegT2, 0)
	ev := annotate(cpu.Exec{
		PC: 0x400000, Raw: raw, Inst: isa.Decode(raw),
		SrcA: 0x10000009, SrcB: 0, ReadsA: true, ReadsB: true,
		Dest: isa.RegT2, Result: 0x10000009, HasDest: true, NextPC: 0x400004,
	})
	c2.Consume(ev)
	got := c2.Counts().RFRead
	// Operand A: 4 bytes + 2 ext bits = 34; operand B (zero): 8+2 = 10.
	if got.Compressed != 34+10 {
		t.Fatalf("scheme2 read bits: %d", got.Compressed)
	}
	c3 := NewCollector(1, rc, m)
	c3.Consume(ev)
	// 3-bit scheme: A = 16+3 = 19; B = 8+3 = 11.
	if got := c3.Counts().RFRead; got.Compressed != 19+11 {
		t.Fatalf("scheme3 read bits: %d", got.Compressed)
	}
}

func TestHalfwordCollectorBits(t *testing.T) {
	m := mem.NewMemory()
	c := NewCollector(2, rc, m)
	c.Consume(aluEvent(0x400000, 3, 4))
	// Each operand: one halfword + 1 ext bit = 17.
	if got := c.Counts().RFRead; got.Compressed != 34 {
		t.Fatalf("halfword read bits: %d", got.Compressed)
	}
	if got := c.Counts().PCIncr; got.Compressed != 16 {
		t.Fatalf("halfword pc bits: %d", got.Compressed)
	}
}

func TestStagesRowAlignment(t *testing.T) {
	if len(Stages()) != 8 {
		t.Fatalf("stages: %d", len(Stages()))
	}
	var c Counts
	if len(c.Row()) != len(Stages()) {
		t.Fatal("Row/Stages mismatch")
	}
}
