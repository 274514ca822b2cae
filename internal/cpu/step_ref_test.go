package cpu

import (
	"fmt"

	"repro/internal/isa"
)

// RefStep is the interpreter step as it was before the decode table: it
// loads, decodes and validates the word at the PC on every call, and
// returns the Exec record by value. It is the reference the table-driven
// Step is checked against, field for field, in lockstep.
func (c *CPU) RefStep() (Exec, error) {
	if c.Done {
		return Exec{}, fmt.Errorf("cpu: program has exited (code %d)", c.ExitCode)
	}
	if c.PC&3 != 0 {
		return Exec{}, fmt.Errorf("cpu: misaligned PC %#x", c.PC)
	}
	raw := c.Mem.Load32(c.PC)
	inst := isa.Decode(raw)
	if err := inst.Validate(); err != nil {
		return Exec{}, fmt.Errorf("cpu: at PC %#x: %w", c.PC, err)
	}

	e := Exec{PC: c.PC, Raw: raw, Inst: inst, NextPC: c.PC + 4}
	if inst.ReadsRs() {
		e.SrcA, e.ReadsA = c.reg(inst.Rs), true
	}
	if inst.ReadsRt() {
		e.SrcB, e.ReadsB = c.reg(inst.Rt), true
	}
	a, b := e.SrcA, e.SrcB
	simm := uint32(int32(inst.Imm))
	zimm := uint32(uint16(inst.Imm))

	setDest := func(r isa.Reg, v uint32) {
		if r != isa.RegZero {
			e.Dest, e.Result, e.HasDest = r, v, true
		}
		c.setReg(r, v)
	}

	switch inst.Op {
	case isa.OpSpecial:
		if err := c.refSpecial(inst, a, b, &e, setDest); err != nil {
			return Exec{}, err
		}
	case isa.OpRegimm:
		taken := false
		switch uint8(inst.Rt) {
		case isa.RegimmBLTZ:
			taken = int32(a) < 0
		case isa.RegimmBGEZ:
			taken = int32(a) >= 0
		}
		if taken {
			e.Taken, e.NextPC = true, inst.BranchTarget(e.PC)
		}
	case isa.OpJ:
		e.Taken, e.NextPC = true, inst.JumpTarget(e.PC)
	case isa.OpJAL:
		setDest(isa.RegRA, e.PC+4)
		e.Taken, e.NextPC = true, inst.JumpTarget(e.PC)
	case isa.OpBEQ:
		if a == b {
			e.Taken, e.NextPC = true, inst.BranchTarget(e.PC)
		}
	case isa.OpBNE:
		if a != b {
			e.Taken, e.NextPC = true, inst.BranchTarget(e.PC)
		}
	case isa.OpBLEZ:
		if int32(a) <= 0 {
			e.Taken, e.NextPC = true, inst.BranchTarget(e.PC)
		}
	case isa.OpBGTZ:
		if int32(a) > 0 {
			e.Taken, e.NextPC = true, inst.BranchTarget(e.PC)
		}
	case isa.OpADDI, isa.OpADDIU:
		// Overflow traps are not modelled; ADDI behaves as ADDIU.
		setDest(inst.Rt, a+simm)
	case isa.OpSLTI:
		var v uint32
		if int32(a) < int32(simm) {
			v = 1
		}
		setDest(inst.Rt, v)
	case isa.OpSLTIU:
		var v uint32
		if a < simm {
			v = 1
		}
		setDest(inst.Rt, v)
	case isa.OpANDI:
		setDest(inst.Rt, a&zimm)
	case isa.OpORI:
		setDest(inst.Rt, a|zimm)
	case isa.OpXORI:
		setDest(inst.Rt, a^zimm)
	case isa.OpLUI:
		setDest(inst.Rt, zimm<<16)
	case isa.OpLB, isa.OpLBU, isa.OpLH, isa.OpLHU, isa.OpLW:
		addr := a + simm
		e.Addr, e.MemWidth = addr, inst.MemBytes()
		if err := refAlign(addr, e.MemWidth, e.PC); err != nil {
			return Exec{}, err
		}
		var v uint32
		switch inst.Op {
		case isa.OpLB:
			v = uint32(int32(int8(c.Mem.Load8(addr))))
		case isa.OpLBU:
			v = uint32(c.Mem.Load8(addr))
		case isa.OpLH:
			v = uint32(int32(int16(c.Mem.Load16(addr))))
		case isa.OpLHU:
			v = uint32(c.Mem.Load16(addr))
		case isa.OpLW:
			v = c.Mem.Load32(addr)
		}
		e.Loaded = v
		setDest(inst.Rt, v)
	case isa.OpSB, isa.OpSH, isa.OpSW:
		addr := a + simm
		e.Addr, e.MemWidth = addr, inst.MemBytes()
		if err := refAlign(addr, e.MemWidth, e.PC); err != nil {
			return Exec{}, err
		}
		e.StoreVal = b
		switch inst.Op {
		case isa.OpSB:
			c.Mem.Store8(addr, byte(b))
		case isa.OpSH:
			c.Mem.Store16(addr, uint16(b))
		case isa.OpSW:
			c.Mem.Store32(addr, b)
		}
	default:
		return Exec{}, fmt.Errorf("cpu: unimplemented opcode %#x at PC %#x", uint8(inst.Op), e.PC)
	}

	c.PC = e.NextPC
	c.Retired++
	return e, nil
}

func (c *CPU) refSpecial(inst isa.Inst, a, b uint32, e *Exec, setDest func(isa.Reg, uint32)) error {
	switch inst.Funct {
	case isa.FnSLL:
		setDest(inst.Rd, b<<inst.Shamt)
	case isa.FnSRL:
		setDest(inst.Rd, b>>inst.Shamt)
	case isa.FnSRA:
		setDest(inst.Rd, uint32(int32(b)>>inst.Shamt))
	case isa.FnSLLV:
		setDest(inst.Rd, b<<(a&31))
	case isa.FnSRLV:
		setDest(inst.Rd, b>>(a&31))
	case isa.FnSRAV:
		setDest(inst.Rd, uint32(int32(b)>>(a&31)))
	case isa.FnJR:
		if a&3 != 0 {
			return fmt.Errorf("cpu: jr to misaligned %#x at PC %#x", a, e.PC)
		}
		e.Taken, e.NextPC = true, a
	case isa.FnJALR:
		if a&3 != 0 {
			return fmt.Errorf("cpu: jalr to misaligned %#x at PC %#x", a, e.PC)
		}
		setDest(inst.Rd, e.PC+4)
		e.Taken, e.NextPC = true, a
	case isa.FnSYSCALL:
		return c.syscall(e.PC)
	case isa.FnBREAK:
		return fmt.Errorf("cpu: BREAK at PC %#x", e.PC)
	case isa.FnMFHI:
		setDest(inst.Rd, c.HI)
	case isa.FnMTHI:
		c.HI = a
	case isa.FnMFLO:
		setDest(inst.Rd, c.LO)
	case isa.FnMTLO:
		c.LO = a
	case isa.FnMULT:
		p := int64(int32(a)) * int64(int32(b))
		c.HI, c.LO = uint32(uint64(p)>>32), uint32(uint64(p))
	case isa.FnMULTU:
		p := uint64(a) * uint64(b)
		c.HI, c.LO = uint32(p>>32), uint32(p)
	case isa.FnDIV:
		if b != 0 {
			c.LO = uint32(int32(a) / int32(b))
			c.HI = uint32(int32(a) % int32(b))
		} else {
			c.LO, c.HI = ^uint32(0), a
		}
	case isa.FnDIVU:
		if b != 0 {
			c.LO, c.HI = a/b, a%b
		} else {
			c.LO, c.HI = ^uint32(0), a
		}
	case isa.FnADD, isa.FnADDU:
		setDest(inst.Rd, a+b)
	case isa.FnSUB, isa.FnSUBU:
		setDest(inst.Rd, a-b)
	case isa.FnAND:
		setDest(inst.Rd, a&b)
	case isa.FnOR:
		setDest(inst.Rd, a|b)
	case isa.FnXOR:
		setDest(inst.Rd, a^b)
	case isa.FnNOR:
		setDest(inst.Rd, ^(a | b))
	case isa.FnSLT:
		var v uint32
		if int32(a) < int32(b) {
			v = 1
		}
		setDest(inst.Rd, v)
	case isa.FnSLTU:
		var v uint32
		if a < b {
			v = 1
		}
		setDest(inst.Rd, v)
	default:
		return fmt.Errorf("cpu: unimplemented funct %#x at PC %#x", uint8(inst.Funct), e.PC)
	}
	return nil
}

func (c *CPU) setReg(r isa.Reg, v uint32) {
	if r != isa.RegZero {
		c.Regs[r&31] = v
	}
}

func refAlign(addr uint32, width int, pc uint32) error {
	if addr&(uint32(width)-1) != 0 {
		return fmt.Errorf("cpu: misaligned %d-byte access to %#x at PC %#x", width, addr, pc)
	}
	return nil
}
