// Package cpu implements the functional MIPS-subset interpreter that plays
// the role SimpleScalar's instruction interpreter plays in the paper (§3):
// it executes programs and emits one Exec record per retired instruction.
// Trace consumers (activity analysis, pipeline timing models) are driven
// from that stream.
//
// The machine has no branch delay slots (like SimpleScalar's PISA): the
// paper's pipelines stall fetch on every branch until resolution, so delay
// slots would only obscure the model.
//
// A suite run retires millions of instructions drawn from a few hundred
// static words, so Step decodes each word once: a direct-mapped decode
// table, indexed by PC>>2 and tagged by the raw word, holds the validated
// instruction, its static facts (Static) and the case Step dispatches it
// to. Tagging by the word rather than the PC keeps stores into text, code
// in data pages and aliasing PCs correct with no invalidation; an invalid
// word is never entered, so it faults on every fetch. The trace recorder
// reads the same entry (CPU.Decoded) for the word's statics and remembers
// its capture slot there.
package cpu

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Exec records everything the timing and activity models need to know about
// one retired instruction.
type Exec struct {
	PC   uint32
	Raw  uint32
	Inst isa.Inst

	// Register source operands, valid when the corresponding flag is set.
	SrcA, SrcB     uint32 // rs and rt values
	ReadsA, ReadsB bool

	// Destination register and the value written, when HasDest.
	Dest    isa.Reg
	Result  uint32
	HasDest bool

	// Data-memory access, when the instruction is a load or store.
	Addr     uint32
	MemWidth int    // bytes: 1, 2 or 4 (0 when no access)
	StoreVal uint32 // value stored (stores only)
	Loaded   uint32 // register value produced (loads only; equals Result)

	// Control flow.
	Taken  bool // branch taken / jump
	NextPC uint32
}

// Syscall numbers honoured by the interpreter ($v0 at a SYSCALL).
const (
	SysPrintInt    = 1
	SysPrintString = 4
	SysExit        = 10
	SysPutChar     = 11
	SysExit2       = 17
)

// CPU is the architected state plus the loaded memory image.
type CPU struct {
	Regs [32]uint32
	HI   uint32
	LO   uint32
	PC   uint32
	// Mem is the memory image. Step caches its current fetch page, so Mem
	// must not be replaced once the CPU has stepped.
	Mem *mem.Memory

	// Done is set once an exit syscall retires; ExitCode carries its code.
	Done     bool
	ExitCode uint32

	// Output accumulates bytes written by print/putc syscalls, so kernel
	// results can be validated against reference implementations.
	Output bytes.Buffer

	// Retired counts executed instructions.
	Retired uint64

	dec  *[1 << decodeBits]Decoded // decode table, allocated by the first Step
	last uint32                    // dec index of the last retired instruction

	fetchPage []byte // the page of fetchPN, or nil
	fetchPN   uint32
}

// New returns a CPU with the given memory image, entry point and stack
// pointer.
func New(m *mem.Memory, entry, sp uint32) *CPU {
	c := &CPU{Mem: m, PC: entry}
	c.Regs[isa.RegSP] = sp
	return c
}

func (c *CPU) reg(r isa.Reg) uint32 { return c.Regs[r&31] }

// decodeBits sizes the decode table: 1<<decodeBits entries, indexed by
// PC>>2, cover 4 KiB of text direct-mapped (36 KiB per CPU), several times
// the largest benchmark's.
const decodeBits = 10

// Static is what never changes between dynamic instances of one
// instruction word: its decoded form and the operand, destination and
// memory facts every retired instance shares.
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

// StaticOf derives the static facts of one decoded instruction.
func StaticOf(in isa.Inst) Static {
	dest, hasDest := in.DestReg()
	return Static{
		Inst:     in,
		Simm:     uint32(int32(in.Imm)),
		Dest:     dest,
		MemWidth: uint8(in.MemBytes()),
		HasDest:  hasDest,
		ReadsA:   in.ReadsRs(),
		ReadsB:   in.ReadsRt(),
		IsStore:  in.IsStore(),
	}
}

// Decoded is one decode-table entry: a validated instruction word, its
// static facts and the case Step dispatches it to. The table is indexed by
// PC>>2 and an entry is used only while it holds the very word fetched, so
// a store into text, code in a data page and two PCs that share an entry
// all stay correct without any invalidation.
type Decoded struct {
	Static
	// Slot is free for a trace recorder to remember where the word sits
	// in its own tables. Step zeroes it whenever the entry is refilled;
	// the recorder must check it belongs to it before trusting it.
	Slot uint32
	h    handler
}

// handler names Step's case for a decoded word; hNone marks an empty
// table entry.
type handler uint8

const (
	hNone handler = iota
	hSLL
	hSRL
	hSRA
	hSLLV
	hSRLV
	hSRAV
	hJR
	hJALR
	hSYSCALL
	hBREAK
	hMFHI
	hMTHI
	hMFLO
	hMTLO
	hMULT
	hMULTU
	hDIV
	hDIVU
	hADD // ADD and ADDU: overflow traps are not modelled
	hSUB // SUB and SUBU
	hAND
	hOR
	hXOR
	hNOR
	hSLT
	hSLTU
	hBLTZ
	hBGEZ
	hJ
	hJAL
	hBEQ
	hBNE
	hBLEZ
	hBGTZ
	hADDI // ADDI and ADDIU
	hSLTI
	hSLTIU
	hANDI
	hORI
	hXORI
	hLUI
	hLB
	hLBU
	hLH
	hLHU
	hLW
	hSB
	hSH
	hSW
)

var functHandlers = map[isa.Funct]handler{
	isa.FnSLL: hSLL, isa.FnSRL: hSRL, isa.FnSRA: hSRA,
	isa.FnSLLV: hSLLV, isa.FnSRLV: hSRLV, isa.FnSRAV: hSRAV,
	isa.FnJR: hJR, isa.FnJALR: hJALR, isa.FnSYSCALL: hSYSCALL, isa.FnBREAK: hBREAK,
	isa.FnMFHI: hMFHI, isa.FnMTHI: hMTHI, isa.FnMFLO: hMFLO, isa.FnMTLO: hMTLO,
	isa.FnMULT: hMULT, isa.FnMULTU: hMULTU, isa.FnDIV: hDIV, isa.FnDIVU: hDIVU,
	isa.FnADD: hADD, isa.FnADDU: hADD, isa.FnSUB: hSUB, isa.FnSUBU: hSUB,
	isa.FnAND: hAND, isa.FnOR: hOR, isa.FnXOR: hXOR, isa.FnNOR: hNOR,
	isa.FnSLT: hSLT, isa.FnSLTU: hSLTU,
}

var opHandlers = map[isa.Opcode]handler{
	isa.OpJ: hJ, isa.OpJAL: hJAL, isa.OpBEQ: hBEQ, isa.OpBNE: hBNE,
	isa.OpBLEZ: hBLEZ, isa.OpBGTZ: hBGTZ,
	isa.OpADDI: hADDI, isa.OpADDIU: hADDI, isa.OpSLTI: hSLTI, isa.OpSLTIU: hSLTIU,
	isa.OpANDI: hANDI, isa.OpORI: hORI, isa.OpXORI: hXORI, isa.OpLUI: hLUI,
	isa.OpLB: hLB, isa.OpLBU: hLBU, isa.OpLH: hLH, isa.OpLHU: hLHU, isa.OpLW: hLW,
	isa.OpSB: hSB, isa.OpSH: hSH, isa.OpSW: hSW,
}

// handlerOf returns Step's case for a decoded word, or hNone if the word is
// not an instruction Step executes. Every word isa.Inst.Validate accepts
// has a case (TestEveryValidWordHasHandler).
func handlerOf(in isa.Inst) handler {
	switch in.Op {
	case isa.OpSpecial:
		return functHandlers[in.Funct]
	case isa.OpRegimm:
		switch uint8(in.Rt) {
		case isa.RegimmBLTZ:
			return hBLTZ
		case isa.RegimmBGEZ:
			return hBGEZ
		}
		return hNone
	}
	return opHandlers[in.Op]
}

// Decoded returns the decode-table entry of the instruction the last
// successful Step retired. Call it only after one; the entry is valid
// until the next Step.
func (c *CPU) Decoded() *Decoded { return &c.dec[c.last] }

// fetchPageOf caches the page of pc as the current fetch page. Memory
// never replaces a page once created, so a cached page stays the live one;
// an unmapped pc has no page to cache (it reads as zero, a nop), since a
// later store may create it.
func (c *CPU) fetchPageOf(pc uint32) {
	c.fetchPage, c.fetchPN = c.Mem.Page(pc), pc>>mem.PageShift
}

// fill decodes raw, fetched at pc, into the table entry d. An invalid word
// is an error and leaves d as it was, so it fails on every fetch.
func (d *Decoded) fill(pc, raw uint32) error {
	inst := isa.Decode(raw)
	if err := inst.Validate(); err != nil {
		return fmt.Errorf("cpu: at PC %#x: %w", pc, err)
	}
	*d = Decoded{Static: StaticOf(inst), h: handlerOf(inst)}
	return nil
}

// Step executes one instruction and fills e with its record. Calling Step
// on a finished CPU returns an error. A failed Step leaves the PC, the
// retired count and the registers unchanged; *e is then unspecified.
//
// Each word is decoded and validated once per table entry (see Decoded);
// a fetch that finds its word already in the entry for its PC goes
// straight to execution.
func (c *CPU) Step(e *Exec) error {
	if c.Done {
		return fmt.Errorf("cpu: program has exited (code %d)", c.ExitCode)
	}
	pc := c.PC
	if pc&3 != 0 {
		return fmt.Errorf("cpu: misaligned PC %#x", pc)
	}
	if pc>>mem.PageShift != c.fetchPN || c.fetchPage == nil {
		c.fetchPageOf(pc)
	}
	var raw uint32
	if c.fetchPage != nil {
		raw = binary.LittleEndian.Uint32(c.fetchPage[pc&(1<<mem.PageShift-1):])
	}
	if c.dec == nil {
		c.dec = new([1 << decodeBits]Decoded)
	}
	d := &c.dec[pc>>2&(1<<decodeBits-1)]
	if d.h == hNone || d.Inst.Raw != raw {
		if err := d.fill(pc, raw); err != nil {
			return err
		}
	}

	in := &d.Inst
	var a, b uint32 // source operands; zero for a port the word does not read
	if d.ReadsA {
		a = c.Regs[in.Rs&31]
	}
	if d.ReadsB {
		b = c.Regs[in.Rt&31]
	}
	zimm := uint32(uint16(in.Imm))

	// The record is built in locals and stored field by field at the end:
	// v is the value written to d.Dest, when the word writes a register.
	var (
		v, addr, storeVal, loaded uint32
		taken                     bool
		next                      = pc + 4
	)
	switch d.h {
	case hSLL:
		v = b << in.Shamt
	case hSRL:
		v = b >> in.Shamt
	case hSRA:
		v = uint32(int32(b) >> in.Shamt)
	case hSLLV:
		v = b << (a & 31)
	case hSRLV:
		v = b >> (a & 31)
	case hSRAV:
		v = uint32(int32(b) >> (a & 31))
	case hJR:
		if a&3 != 0 {
			return fmt.Errorf("cpu: jr to misaligned %#x at PC %#x", a, pc)
		}
		taken, next = true, a
	case hJALR:
		if a&3 != 0 {
			return fmt.Errorf("cpu: jalr to misaligned %#x at PC %#x", a, pc)
		}
		v = pc + 4
		taken, next = true, a
	case hSYSCALL:
		if err := c.syscall(pc); err != nil {
			return err
		}
	case hBREAK:
		return fmt.Errorf("cpu: BREAK at PC %#x", pc)
	case hMFHI:
		v = c.HI
	case hMTHI:
		c.HI = a
	case hMFLO:
		v = c.LO
	case hMTLO:
		c.LO = a
	case hMULT:
		p := int64(int32(a)) * int64(int32(b))
		c.HI, c.LO = uint32(uint64(p)>>32), uint32(uint64(p))
	case hMULTU:
		p := uint64(a) * uint64(b)
		c.HI, c.LO = uint32(p>>32), uint32(p)
	case hDIV:
		if b != 0 {
			c.LO = uint32(int32(a) / int32(b))
			c.HI = uint32(int32(a) % int32(b))
		} else {
			c.LO, c.HI = ^uint32(0), a
		}
	case hDIVU:
		if b != 0 {
			c.LO, c.HI = a/b, a%b
		} else {
			c.LO, c.HI = ^uint32(0), a
		}
	case hADD:
		v = a + b
	case hSUB:
		v = a - b
	case hAND:
		v = a & b
	case hOR:
		v = a | b
	case hXOR:
		v = a ^ b
	case hNOR:
		v = ^(a | b)
	case hSLT:
		if int32(a) < int32(b) {
			v = 1
		}
	case hSLTU:
		if a < b {
			v = 1
		}
	case hBLTZ:
		if int32(a) < 0 {
			taken, next = true, in.BranchTarget(pc)
		}
	case hBGEZ:
		if int32(a) >= 0 {
			taken, next = true, in.BranchTarget(pc)
		}
	case hJ:
		taken, next = true, in.JumpTarget(pc)
	case hJAL:
		v = pc + 4
		taken, next = true, in.JumpTarget(pc)
	case hBEQ:
		if a == b {
			taken, next = true, in.BranchTarget(pc)
		}
	case hBNE:
		if a != b {
			taken, next = true, in.BranchTarget(pc)
		}
	case hBLEZ:
		if int32(a) <= 0 {
			taken, next = true, in.BranchTarget(pc)
		}
	case hBGTZ:
		if int32(a) > 0 {
			taken, next = true, in.BranchTarget(pc)
		}
	case hADDI:
		v = a + d.Simm
	case hSLTI:
		if int32(a) < int32(d.Simm) {
			v = 1
		}
	case hSLTIU:
		if a < d.Simm {
			v = 1
		}
	case hANDI:
		v = a & zimm
	case hORI:
		v = a | zimm
	case hXORI:
		v = a ^ zimm
	case hLUI:
		v = zimm << 16
	case hLB, hLBU, hLH, hLHU, hLW:
		addr = a + d.Simm
		if addr&(uint32(d.MemWidth)-1) != 0 {
			return misaligned(addr, int(d.MemWidth), pc)
		}
		switch d.h {
		case hLB:
			v = uint32(int32(int8(c.Mem.Load8(addr))))
		case hLBU:
			v = uint32(c.Mem.Load8(addr))
		case hLH:
			v = uint32(int32(int16(c.Mem.Load16(addr))))
		case hLHU:
			v = uint32(c.Mem.Load16(addr))
		default:
			v = c.Mem.Load32(addr)
		}
		loaded = v
	case hSB, hSH, hSW:
		addr = a + d.Simm
		if addr&(uint32(d.MemWidth)-1) != 0 {
			return misaligned(addr, int(d.MemWidth), pc)
		}
		storeVal = b
		switch d.h {
		case hSB:
			c.Mem.Store8(addr, byte(b))
		case hSH:
			c.Mem.Store16(addr, uint16(b))
		default:
			c.Mem.Store32(addr, b)
		}
	}
	var res uint32
	if d.HasDest {
		c.Regs[d.Dest&31] = v
		res = v
	}

	e.PC, e.Raw, e.Inst = pc, raw, d.Inst
	e.SrcA, e.SrcB, e.ReadsA, e.ReadsB = a, b, d.ReadsA, d.ReadsB
	e.Dest, e.Result, e.HasDest = d.Dest, res, d.HasDest
	e.Addr, e.MemWidth, e.StoreVal, e.Loaded = addr, int(d.MemWidth), storeVal, loaded
	e.Taken, e.NextPC = taken, next

	c.PC = next
	c.Retired++
	c.last = uint32(pc >> 2 & (1<<decodeBits - 1))
	return nil
}

// syscall performs the system call the SYSCALL at pc requests in $v0.
func (c *CPU) syscall(pc uint32) error {
	switch c.reg(isa.RegV0) {
	case SysPrintInt:
		fmt.Fprintf(&c.Output, "%d", int32(c.reg(isa.RegA0)))
	case SysPrintString:
		addr := c.reg(isa.RegA0)
		for i := 0; i < 1<<20; i++ {
			ch := c.Mem.Load8(addr)
			if ch == 0 {
				return nil
			}
			c.Output.WriteByte(ch)
			addr++
		}
		return fmt.Errorf("cpu: unterminated string in print syscall at PC %#x", pc)
	case SysExit:
		c.Done, c.ExitCode = true, 0
	case SysPutChar:
		c.Output.WriteByte(byte(c.reg(isa.RegA0)))
	case SysExit2:
		c.Done, c.ExitCode = true, c.reg(isa.RegA0)
	default:
		return fmt.Errorf("cpu: unknown syscall %d at PC %#x", c.reg(isa.RegV0), pc)
	}
	return nil
}

func misaligned(addr uint32, width int, pc uint32) error {
	return fmt.Errorf("cpu: misaligned %d-byte access to %#x at PC %#x", width, addr, pc)
}

// Run executes until exit or until max instructions retire, returning the
// number retired. A max of 0 means no limit.
func (c *CPU) Run(max uint64) (uint64, error) {
	var (
		n uint64
		e Exec
	)
	for !c.Done {
		if max > 0 && n >= max {
			break
		}
		if err := c.Step(&e); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}
