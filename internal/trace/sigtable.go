package trace

// Table-driven significance annotation.
//
// Every sig-column quantity of a row (§2, DESIGN.md §7) is a function of
// its instruction word's class (sigClass: the static facts that matter)
// and of four extension markings (sig.Ext3): those of the operands a and
// b, of the result column r, and of x, the value the row's adder or
// shifter produces. Each class has one table of the packed sig word for
// all 4096 marking combinations, filled once per process from the closed
// forms in sigClass.word and shared, read-only, by every capture. The
// result column is 0 for a row that writes no register (the interpreter
// reports Result 0 then), so a move, link or LUI into $zero, and
// MTHI/MTLO, count the blocks of 0; a shift or add into $zero still
// computes x from its operands.

import (
	"sync"

	"repro/internal/isa"
	"repro/internal/sig"
)

// aluKind names the closed form of a class's significance-ALU activity.
type aluKind uint8

const (
	aluOne     aluKind = iota // one block: J, sign tests, JR, SYSCALL, BREAK
	aluAdd                    // adder over a and the second operand into x
	aluLogic                  // bitwise: blocks free in both operands come free
	aluShift                  // larger of b's and x's block counts
	aluMulDiv                 // the iterative units read both operands' blocks
	aluResult                 // links, moves, LUI: the result's blocks
	aluCompare                // BEQ/BNE read stored blocks up to the larger count
)

// sigClass is the static facts of an instruction word that its sig words
// depend on; words of one class share one table. imm is the marking of the
// immediate operand when immOp is set (an I-format adder or logic unit),
// and zero otherwise, so it never splits a class.
type sigClass struct {
	alu      aluKind
	immOp    bool
	imm      sig.Ext3
	memWidth uint8
	readsA   bool
	readsB   bool
	hasDest  bool
	isStore  bool
}

// sigTable holds a class's sig word for every marking combination, at index
// ea | eb<<3 | er<<6 | ex<<9.
type sigTable [1 << 12]uint32

// sigTables is the process-wide set of filled class tables. It holds one
// table per class ever recorded; the classes are a bounded set (a few
// dozen per suite, a few hundred over every valid word).
var sigTables = struct {
	sync.Mutex
	m map[sigClass]*sigTable
}{m: make(map[sigClass]*sigTable)}

// tableOf returns k's table, filling it on first use.
func tableOf(k sigClass) *sigTable {
	sigTables.Lock()
	defer sigTables.Unlock()
	if t, ok := sigTables.m[k]; ok {
		return t
	}
	t := new(sigTable)
	for i := range t {
		t[i] = k.word(sig.Ext3(i&7), sig.Ext3(i>>3&7), sig.Ext3(i>>6&7), sig.Ext3(i>>9&7))
	}
	sigTables.m[k] = t
	return t
}

// word packs the ten significance quantities (the sig*Shift layout in
// capture.go; PackedSig unpacks them) of a row of class k whose a, b,
// result column and adder/shifter output carry the markings ea, eb, er and
// ex. Source counts are 0 for a port that is not read, data-access counts
// are capped at the access width, and writeback counts are 0 when no
// register is written. The adder form is §2.5's case analysis: a block is
// operated on unless it is free in a, the second operand and the sum.
// Subtraction adds ^b + 1, and complementing a word keeps its marking, so
// a - b is the adder over b's marking and the difference.
func (k sigClass) word(ea, eb, er, ex sig.Ext3) uint32 {
	op2 := eb
	if k.immOp {
		op2 = k.imm
	}
	var ops, halfOps uint32
	switch k.alu {
	case aluAdd:
		ops, halfOps = blockCounts(ea & op2 & ex)
	case aluLogic:
		ops, halfOps = blockCounts(ea & op2)
	case aluShift:
		ops, halfOps = maxCounts(eb, ex)
	case aluMulDiv:
		xb, xh := blockCounts(ea)
		yb, yh := blockCounts(eb)
		ops, halfOps = xb+yb, xh+yh
	case aluResult:
		ops, halfOps = blockCounts(er)
	case aluCompare:
		ops, halfOps = maxCounts(ea, eb)
	default:
		ops, halfOps = 1, 1
	}
	w := ops<<sigALUOpsShift | halfOps<<sigALUHalfShift
	if k.readsA {
		n, h := blockCounts(ea)
		w |= n<<sigSrcBytesAShift | h<<sigSrcHalvesAShift
	}
	if k.readsB {
		n, h := blockCounts(eb)
		w |= n<<sigSrcBytesBShift | h<<sigSrcHalvesBShift
	}
	if k.memWidth > 0 {
		v := er // the loaded value
		if k.isStore {
			v = eb // the stored value
		}
		n, h := blockCounts(v)
		width := uint32(k.memWidth)
		w |= min(n, width)<<sigMemBytesShift | min(h, (width+1)/2)<<sigMemHalvesShift
	}
	if k.hasDest {
		n, h := blockCounts(er)
		w |= n<<sigWBBytesShift | h<<sigWBHalvesShift
	}
	return w
}

// sigSlot is one statics slot's recipe for its rows' sig words: its class
// table, and masks that select x among the adder's output a + op2 (or
// a - op2, with neg all ones), where op2 = b&bMask | imm, and b shifted by
// amt | a&amtMask left, right or arithmetically right. A class that reads
// no x selects none, and x is 0.
type sigSlot struct {
	tab                *sigTable
	bMask, imm, neg    uint32
	amt, amtMask       uint32
	add, shl, shr, sra uint32
}

// sigSlotOf derives the recipe of st's rows.
func sigSlotOf(st *Static) sigSlot {
	in := &st.Inst
	k := sigClass{memWidth: st.MemWidth, readsA: st.ReadsA, readsB: st.ReadsB,
		hasDest: st.HasDest, isStore: st.IsStore}
	const all = ^uint32(0)
	var s sigSlot
	adder := func(neg uint32) { k.alu, s.bMask, s.neg, s.add = aluAdd, all, neg, all }
	immAdder := func(neg uint32) {
		k.alu, k.immOp, k.imm, s.imm, s.neg, s.add = aluAdd, true, sig.Ext3Of(st.Simm), st.Simm, neg, all
	}
	shift := func(sel *uint32, variable bool) {
		k.alu, *sel = aluShift, all
		if variable {
			s.amtMask = 31
		} else {
			s.amt = uint32(in.Shamt & 31)
		}
	}
	switch in.Op {
	case isa.OpSpecial:
		switch in.Funct {
		case isa.FnADD, isa.FnADDU:
			adder(0)
		case isa.FnSUB, isa.FnSUBU, isa.FnSLT, isa.FnSLTU:
			adder(all)
		case isa.FnAND, isa.FnOR, isa.FnXOR, isa.FnNOR:
			k.alu = aluLogic
		case isa.FnSLL, isa.FnSLLV:
			shift(&s.shl, in.Funct == isa.FnSLLV)
		case isa.FnSRL, isa.FnSRLV:
			shift(&s.shr, in.Funct == isa.FnSRLV)
		case isa.FnSRA, isa.FnSRAV:
			shift(&s.sra, in.Funct == isa.FnSRAV)
		case isa.FnMULT, isa.FnMULTU, isa.FnDIV, isa.FnDIVU:
			k.alu = aluMulDiv
		case isa.FnJALR, isa.FnMFHI, isa.FnMFLO, isa.FnMTHI, isa.FnMTLO:
			k.alu = aluResult
		}
	case isa.OpADDI, isa.OpADDIU,
		isa.OpLB, isa.OpLBU, isa.OpLH, isa.OpLHU, isa.OpLW,
		isa.OpSB, isa.OpSH, isa.OpSW:
		immAdder(0)
	case isa.OpSLTI, isa.OpSLTIU:
		immAdder(all)
	case isa.OpANDI, isa.OpORI, isa.OpXORI:
		k.alu, k.immOp, k.imm = aluLogic, true, sig.Ext3Of(uint32(uint16(in.Imm)))
	case isa.OpLUI, isa.OpJAL:
		k.alu = aluResult
	case isa.OpBEQ, isa.OpBNE:
		k.alu = aluCompare
	}
	s.tab = tableOf(k)
	return s
}

// word returns the sig word of a row of this slot with operands a and b and
// result column r.
func (s *sigSlot) word(a, b, r uint32) uint32 {
	sum := a + ((b&s.bMask | s.imm) ^ s.neg) - s.neg
	n := (s.amt | a&s.amtMask) & 31
	x := sum&s.add | b<<n&s.shl | b>>n&s.shr | uint32(int32(b)>>n)&s.sra
	return s.tab[(markPair(a, b)|markPair(r, x)<<6)&(1<<12-1)]
}

// markPair returns sig.Ext3Of(lo) | sig.Ext3Of(hi)<<3, for both words at
// once in one 64-bit word. Byte i of a word extends byte i-1 when bits
// 8i-1..8i+7 are equal, that is when bits 8i-1..8i+6 of v ^ v>>1 are all
// zero; shifted down by 7, those are byte i-1 of t, three bytes per word.
// The exact zero-byte test sets bit 7 of each zero byte with no carry
// between bytes, and the multiply gathers the six flags (bits 0, 8, 16,
// 32, 40, 48 of z) into bits 14–16 and 46–48 of p, with no two partial
// products overlapping.
func markPair(lo, hi uint32) uint32 {
	const l7 = 0x7f7f7f7f7f7f7f7f
	u := uint64(lo) | uint64(hi)<<32
	t := (u ^ u>>1) >> 7 & 0x00ffffff_00ffffff
	z := ^((t&l7 + l7) | t | l7) >> 7 & 0x00010101_00010101
	p := z * 0x4081
	return uint32(p>>14&7 | p>>43&0x38)
}
