package cpu

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// execOne builds a one-instruction machine, runs the raw word with the
// given initial register file, and returns the CPU and Exec record.
func execOne(t *testing.T, raw uint32, setup func(c *CPU)) (*CPU, Exec) {
	t.Helper()
	m := mem.NewMemory()
	m.Store32(0x0040_0000, raw)
	c := New(m, 0x0040_0000, 0x7fff_f000)
	if setup != nil {
		setup(c)
	}
	e, err := step(c)
	if err != nil {
		t.Fatalf("step %s: %v", isa.Decode(raw).Disassemble(0x400000), err)
	}
	return c, e
}

// Property: every R-format ALU operation matches its Go reference over
// random operands.
func TestRFormatSemanticsProperty(t *testing.T) {
	refs := map[isa.Funct]func(a, b uint32) uint32{
		isa.FnADDU: func(a, b uint32) uint32 { return a + b },
		isa.FnADD:  func(a, b uint32) uint32 { return a + b },
		isa.FnSUBU: func(a, b uint32) uint32 { return a - b },
		isa.FnSUB:  func(a, b uint32) uint32 { return a - b },
		isa.FnAND:  func(a, b uint32) uint32 { return a & b },
		isa.FnOR:   func(a, b uint32) uint32 { return a | b },
		isa.FnXOR:  func(a, b uint32) uint32 { return a ^ b },
		isa.FnNOR:  func(a, b uint32) uint32 { return ^(a | b) },
		isa.FnSLT: func(a, b uint32) uint32 {
			if int32(a) < int32(b) {
				return 1
			}
			return 0
		},
		isa.FnSLTU: func(a, b uint32) uint32 {
			if a < b {
				return 1
			}
			return 0
		},
		isa.FnSLLV: func(a, b uint32) uint32 { return b << (a & 31) },
		isa.FnSRLV: func(a, b uint32) uint32 { return b >> (a & 31) },
		isa.FnSRAV: func(a, b uint32) uint32 { return uint32(int32(b) >> (a & 31)) },
	}
	rng := rand.New(rand.NewSource(7))
	for fn, ref := range refs {
		for i := 0; i < 200; i++ {
			a, b := rng.Uint32(), rng.Uint32()
			c, e := execOne(t, isa.EncodeR(fn, isa.RegT0, isa.RegT1, isa.RegT2, 0), func(c *CPU) {
				c.Regs[isa.RegT0] = a
				c.Regs[isa.RegT1] = b
			})
			want := ref(a, b)
			if c.Regs[isa.RegT2] != want {
				t.Fatalf("%s a=%#x b=%#x: got %#x want %#x",
					isa.FunctName(fn), a, b, c.Regs[isa.RegT2], want)
			}
			if e.HasDest && e.Result != want {
				t.Fatalf("%s: exec record result %#x != %#x", isa.FunctName(fn), e.Result, want)
			}
		}
	}
}

// Property: immediate shifts match reference for all shamt values.
func TestShiftImmSemanticsExhaustive(t *testing.T) {
	vals := []uint32{0, 1, 0x80000000, 0xffffffff, 0x12345678, 0xdeadbeef}
	for _, v := range vals {
		for sh := uint8(0); sh < 32; sh++ {
			checks := []struct {
				fn   isa.Funct
				want uint32
			}{
				{isa.FnSLL, v << sh},
				{isa.FnSRL, v >> sh},
				{isa.FnSRA, uint32(int32(v) >> sh)},
			}
			for _, c := range checks {
				cpu, _ := execOne(t, isa.EncodeR(c.fn, 0, isa.RegT1, isa.RegT2, sh), func(m *CPU) {
					m.Regs[isa.RegT1] = v
				})
				if cpu.Regs[isa.RegT2] != c.want {
					t.Fatalf("%s %#x by %d: got %#x want %#x",
						isa.FunctName(c.fn), v, sh, cpu.Regs[isa.RegT2], c.want)
				}
			}
		}
	}
}

// Property: I-format ALU ops match reference over random operands.
func TestIFormatSemanticsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		a := rng.Uint32()
		imm := int16(rng.Uint32())
		simm := uint32(int32(imm))
		zimm := uint32(uint16(imm))
		checks := []struct {
			op   isa.Opcode
			want uint32
		}{
			{isa.OpADDIU, a + simm},
			{isa.OpADDI, a + simm},
			{isa.OpANDI, a & zimm},
			{isa.OpORI, a | zimm},
			{isa.OpXORI, a ^ zimm},
			{isa.OpLUI, zimm << 16},
		}
		if int32(a) < int32(simm) {
			checks = append(checks, struct {
				op   isa.Opcode
				want uint32
			}{isa.OpSLTI, 1})
		} else {
			checks = append(checks, struct {
				op   isa.Opcode
				want uint32
			}{isa.OpSLTI, 0})
		}
		for _, c := range checks {
			cpu, _ := execOne(t, isa.EncodeI(c.op, isa.RegT0, isa.RegT2, imm), func(m *CPU) {
				m.Regs[isa.RegT0] = a
			})
			if cpu.Regs[isa.RegT2] != c.want {
				t.Fatalf("op %#x a=%#x imm=%d: got %#x want %#x",
					uint8(c.op), a, imm, cpu.Regs[isa.RegT2], c.want)
			}
		}
	}
}

// Branch direction truth table over signed corner values.
func TestBranchSemanticsCorners(t *testing.T) {
	vals := []uint32{0, 1, 0x7fffffff, 0x80000000, 0xffffffff}
	for _, a := range vals {
		for _, b := range vals {
			checks := []struct {
				raw   uint32
				taken bool
				name  string
			}{
				{isa.EncodeI(isa.OpBEQ, isa.RegT0, isa.RegT1, 4), a == b, "beq"},
				{isa.EncodeI(isa.OpBNE, isa.RegT0, isa.RegT1, 4), a != b, "bne"},
				{isa.EncodeI(isa.OpBLEZ, isa.RegT0, 0, 4), int32(a) <= 0, "blez"},
				{isa.EncodeI(isa.OpBGTZ, isa.RegT0, 0, 4), int32(a) > 0, "bgtz"},
				{isa.EncodeRegimm(isa.RegimmBLTZ, isa.RegT0, 4), int32(a) < 0, "bltz"},
				{isa.EncodeRegimm(isa.RegimmBGEZ, isa.RegT0, 4), int32(a) >= 0, "bgez"},
			}
			for _, c := range checks {
				_, e := execOne(t, c.raw, func(m *CPU) {
					m.Regs[isa.RegT0] = a
					m.Regs[isa.RegT1] = b
				})
				if e.Taken != c.taken {
					t.Fatalf("%s a=%#x b=%#x: taken=%v want %v", c.name, a, b, e.Taken, c.taken)
				}
				wantNext := uint32(0x0040_0004)
				if c.taken {
					wantNext = 0x0040_0004 + 16
				}
				if e.NextPC != wantNext {
					t.Fatalf("%s: NextPC %#x want %#x", c.name, e.NextPC, wantNext)
				}
			}
		}
	}
}

// Loads: width, sign extension and Exec record fields over random memory.
func TestLoadSemanticsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 300; i++ {
		word := rng.Uint32()
		base := uint32(0x1000_0100)
		checks := []struct {
			op    isa.Opcode
			off   int16
			want  uint32
			width int
		}{
			{isa.OpLW, 0, word, 4},
			{isa.OpLH, 0, uint32(int32(int16(word))), 2},
			{isa.OpLH, 2, uint32(int32(int16(word >> 16))), 2},
			{isa.OpLHU, 0, uint32(uint16(word)), 2},
			{isa.OpLB, 0, uint32(int32(int8(word))), 1},
			{isa.OpLB, 3, uint32(int32(int8(word >> 24))), 1},
			{isa.OpLBU, 1, uint32(uint8(word >> 8)), 1},
		}
		for _, c := range checks {
			m := mem.NewMemory()
			m.Store32(0x0040_0000, isa.EncodeI(c.op, isa.RegT0, isa.RegT2, c.off))
			m.Store32(base, word)
			cpu := New(m, 0x0040_0000, 0x7fff_f000)
			cpu.Regs[isa.RegT0] = base
			e, err := step(cpu)
			if err != nil {
				t.Fatal(err)
			}
			if cpu.Regs[isa.RegT2] != c.want {
				t.Fatalf("op %#x word=%#x off=%d: got %#x want %#x",
					uint8(c.op), word, c.off, cpu.Regs[isa.RegT2], c.want)
			}
			if e.MemWidth != c.width || e.Addr != base+uint32(c.off) {
				t.Fatalf("op %#x exec record: width %d addr %#x", uint8(c.op), e.MemWidth, e.Addr)
			}
		}
	}
}

// Stores only touch their width.
func TestStoreWidths(t *testing.T) {
	m := mem.NewMemory()
	m.Store32(0x0040_0000, isa.EncodeI(isa.OpSB, isa.RegT0, isa.RegT1, 1))
	m.Store32(0x1000_0000, 0xaaaaaaaa)
	c := New(m, 0x0040_0000, 0x7fff_f000)
	c.Regs[isa.RegT0] = 0x1000_0000
	c.Regs[isa.RegT1] = 0x11223344
	if _, err := step(c); err != nil {
		t.Fatal(err)
	}
	if got := m.Load32(0x1000_0000); got != 0xaaaa44aa {
		t.Fatalf("sb result: %#x", got)
	}
	m.Store32(0x0040_0004, isa.EncodeI(isa.OpSH, isa.RegT0, isa.RegT1, 2))
	if _, err := step(c); err != nil {
		t.Fatal(err)
	}
	if got := m.Load32(0x1000_0000); got != 0x3344_44aa {
		t.Fatalf("sh result: %#x", got)
	}
}

// Jump-and-link writes the return address and redirects.
func TestJumpSemantics(t *testing.T) {
	_, e := execOne(t, isa.EncodeJ(isa.OpJAL, (0x0040_0100)>>2), nil)
	if !e.Taken || e.NextPC != 0x0040_0100 {
		t.Fatalf("jal: %+v", e)
	}
	if !e.HasDest || e.Dest != isa.RegRA || e.Result != 0x0040_0004 {
		t.Fatalf("jal link: %+v", e)
	}
	c, e := execOne(t, isa.EncodeR(isa.FnJALR, isa.RegT0, 0, isa.RegT3, 0), func(m *CPU) {
		m.Regs[isa.RegT0] = 0x0040_0200
	})
	if e.NextPC != 0x0040_0200 || c.Regs[isa.RegT3] != 0x0040_0004 {
		t.Fatalf("jalr: %+v", e)
	}
}

// MULT/DIV corner cases including INT_MIN.
func TestMultDivCorners(t *testing.T) {
	c, _ := execOne(t, isa.EncodeR(isa.FnMULT, isa.RegT0, isa.RegT1, 0, 0), func(m *CPU) {
		m.Regs[isa.RegT0] = 0x80000000 // INT_MIN
		m.Regs[isa.RegT1] = 0xffffffff // -1
	})
	// INT_MIN * -1 = 2^31: HI=0, LO=0x80000000.
	if c.HI != 0 || c.LO != 0x80000000 {
		t.Fatalf("INT_MIN*-1: hi=%#x lo=%#x", c.HI, c.LO)
	}
	// Signed division INT_MIN / -1 overflows; MIPS leaves it undefined but
	// must not trap the simulator.
	m := mem.NewMemory()
	m.Store32(0x0040_0000, isa.EncodeR(isa.FnDIV, isa.RegT0, isa.RegT1, 0, 0))
	cc := New(m, 0x0040_0000, 0x7fff_f000)
	cc.Regs[isa.RegT0] = 0x80000000
	cc.Regs[isa.RegT1] = 0xffffffff
	if _, err := step(cc); err != nil {
		t.Fatalf("INT_MIN/-1 must not fault the host: %v", err)
	}
}

func TestDivOverflowGoSemantics(t *testing.T) {
	// Document the choice: INT_MIN / -1 wraps to INT_MIN (hardware-typical).
	m := mem.NewMemory()
	m.Store32(0x0040_0000, isa.EncodeR(isa.FnDIV, isa.RegT0, isa.RegT1, 0, 0))
	c := New(m, 0x0040_0000, 0x7fff_f000)
	c.Regs[isa.RegT0] = 0x80000000
	c.Regs[isa.RegT1] = 0xffffffff
	_, err := step(c)
	if err != nil {
		t.Fatal(err)
	}
	if c.LO != 0x80000000 || c.HI != 0 {
		t.Fatalf("INT_MIN/-1: lo=%#x hi=%#x", c.LO, c.HI)
	}
}

// step runs one Step and returns its record.
func step(c *CPU) (Exec, error) {
	var e Exec
	err := c.Step(&e)
	return e, err
}
