package cpu

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
)

// run assembles src, executes it to completion and returns the CPU.
func run(t *testing.T, src string, maxInsts uint64) *CPU {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := mem.NewMemory()
	p.LoadInto(m)
	c := New(m, p.Entry, asm.DefaultStackTop)
	if _, err := c.Run(maxInsts); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !c.Done {
		t.Fatalf("program did not exit within %d instructions", maxInsts)
	}
	return c
}

const exitSeq = `
    li $v0, 10
    syscall
`

func TestArithmetic(t *testing.T) {
	c := run(t, `
main:
    li   $t0, 6
    li   $t1, 7
    addu $t2, $t0, $t1    # 13
    subu $t3, $t0, $t1    # -1
    and  $t4, $t0, $t1    # 6
    or   $t5, $t0, $t1    # 7
    xor  $t6, $t0, $t1    # 1
    nor  $t7, $t0, $t1    # ^7
    slt  $s0, $t1, $t0    # 0
    slt  $s1, $t0, $t1    # 1
    sltu $s2, $t0, $t1    # 1
`+exitSeq, 100)
	want := map[isa.Reg]uint32{
		isa.RegT2: 13, isa.RegT3: ^uint32(0), isa.RegT4: 6, isa.RegT5: 7,
		isa.RegT6: 1, isa.RegT7: ^uint32(7), isa.RegS0: 0, isa.RegS1: 1, isa.RegS2: 1,
	}
	for r, v := range want {
		if c.Regs[r] != v {
			t.Errorf("%s = %#x, want %#x", r, c.Regs[r], v)
		}
	}
}

func TestShifts(t *testing.T) {
	c := run(t, `
main:
    li   $t0, -8
    sll  $t1, $t0, 2      # -32
    srl  $t2, $t0, 2      # logical
    sra  $t3, $t0, 2      # -2
    li   $t4, 3
    sllv $t5, $t0, $t4    # -64
    srav $t6, $t0, $t4    # -1
`+exitSeq, 100)
	if got := int32(c.Regs[isa.RegT1]); got != -32 {
		t.Errorf("sll: %d", got)
	}
	if got := c.Regs[isa.RegT2]; got != uint32(0xfffffff8)>>2 {
		t.Errorf("srl: %#x", got)
	}
	if got := int32(c.Regs[isa.RegT3]); got != -2 {
		t.Errorf("sra: %d", got)
	}
	if got := int32(c.Regs[isa.RegT5]); got != -64 {
		t.Errorf("sllv: %d", got)
	}
	if got := int32(c.Regs[isa.RegT6]); got != -1 {
		t.Errorf("srav: %d", got)
	}
}

func TestZeroRegisterIsImmutable(t *testing.T) {
	c := run(t, `
main:
    li   $t0, 5
    addu $zero, $t0, $t0
    move $t1, $zero
`+exitSeq, 100)
	if c.Regs[isa.RegZero] != 0 || c.Regs[isa.RegT1] != 0 {
		t.Fatal("$zero must stay zero")
	}
}

func TestLoopSum(t *testing.T) {
	// Sum 1..100 = 5050.
	c := run(t, `
main:
    li   $t0, 100
    li   $t1, 0
loop:
    addu $t1, $t1, $t0
    addiu $t0, $t0, -1
    bgtz $t0, loop
`+exitSeq, 1000)
	if c.Regs[isa.RegT1] != 5050 {
		t.Fatalf("sum: %d", c.Regs[isa.RegT1])
	}
}

func TestMemoryOps(t *testing.T) {
	c := run(t, `
main:
    la   $s0, data
    lw   $t0, 0($s0)       # 0x11223344
    lh   $t1, 4($s0)       # -2 (0xfffe)
    lhu  $t2, 4($s0)       # 0xfffe
    lb   $t3, 6($s0)       # -1
    lbu  $t4, 6($s0)       # 0xff
    sw   $t0, 8($s0)
    lw   $t5, 8($s0)
    sb   $t0, 12($s0)
    lbu  $t6, 12($s0)      # 0x44
    sh   $t0, 14($s0)
    lhu  $t7, 14($s0)      # 0x3344
`+exitSeq+`
.data
data:
    .word 0x11223344
    .half 0xfffe
    .byte 0xff, 0
    .space 12
`, 100)
	checks := map[isa.Reg]uint32{
		isa.RegT0: 0x11223344,
		isa.RegT1: 0xfffffffe,
		isa.RegT2: 0xfffe,
		isa.RegT3: 0xffffffff,
		isa.RegT4: 0xff,
		isa.RegT5: 0x11223344,
		isa.RegT6: 0x44,
		isa.RegT7: 0x3344,
	}
	for r, v := range checks {
		if c.Regs[r] != v {
			t.Errorf("%s = %#x, want %#x", r, c.Regs[r], v)
		}
	}
}

func TestBranchVariants(t *testing.T) {
	c := run(t, `
main:
    li $s0, 0          # accumulates taken-branch markers
    li $t0, -5
    li $t1, 5
    bltz $t0, a
    j fail
a:  ori $s0, $s0, 1
    bgez $t1, b
    j fail
b:  ori $s0, $s0, 2
    blez $zero, c
    j fail
c:  ori $s0, $s0, 4
    bgtz $t1, d
    j fail
d:  ori $s0, $s0, 8
    beq $t0, $t0, e
    j fail
e:  ori $s0, $s0, 16
    bne $t0, $t1, f
    j fail
f:  ori $s0, $s0, 32
`+exitSeq+`
fail:
    li $v0, 17
    li $a0, 1
    syscall
`, 200)
	if c.Regs[isa.RegS0] != 63 {
		t.Fatalf("branch markers: %#b", c.Regs[isa.RegS0])
	}
	if c.ExitCode != 0 {
		t.Fatalf("exit code: %d", c.ExitCode)
	}
}

func TestJalAndFunctionCall(t *testing.T) {
	c := run(t, `
main:
    li  $a0, 21
    jal double
    move $s0, $v1
`+exitSeq+`
double:
    addu $v1, $a0, $a0
    jr  $ra
`, 100)
	if c.Regs[isa.RegS0] != 42 {
		t.Fatalf("call result: %d", c.Regs[isa.RegS0])
	}
}

func TestJalr(t *testing.T) {
	c := run(t, `
main:
    la   $t9, target
    jalr $t9
    j    done
target:
    li   $s0, 99
    jr   $ra
done:
`+exitSeq, 100)
	if c.Regs[isa.RegS0] != 99 {
		t.Fatalf("jalr result: %d", c.Regs[isa.RegS0])
	}
}

func TestMultDiv(t *testing.T) {
	c := run(t, `
main:
    li    $t0, -6
    li    $t1, 7
    mult  $t0, $t1
    mflo  $s0          # -42
    mfhi  $s1          # sign bits
    li    $t2, 43
    li    $t3, 5
    div   $t2, $t3
    mflo  $s2          # 8
    mfhi  $s3          # 3
    multu $t1, $t1
    mflo  $s4          # 49
`+exitSeq, 100)
	if got := int32(c.Regs[isa.RegS0]); got != -42 {
		t.Errorf("mult lo: %d", got)
	}
	if got := c.Regs[isa.RegS1]; got != 0xffffffff {
		t.Errorf("mult hi: %#x", got)
	}
	if c.Regs[isa.RegS2] != 8 || c.Regs[isa.RegS3] != 3 {
		t.Errorf("div: %d r %d", c.Regs[isa.RegS2], c.Regs[isa.RegS3])
	}
	if c.Regs[isa.RegS4] != 49 {
		t.Errorf("multu: %d", c.Regs[isa.RegS4])
	}
}

func TestMthiMtlo(t *testing.T) {
	c := run(t, `
main:
    li   $t0, 123
    mtlo $t0
    mthi $t0
    mflo $s0
    mfhi $s1
`+exitSeq, 100)
	if c.Regs[isa.RegS0] != 123 || c.Regs[isa.RegS1] != 123 {
		t.Fatal("mthi/mtlo roundtrip failed")
	}
}

func TestSyscallOutput(t *testing.T) {
	c := run(t, `
main:
    li $v0, 1
    li $a0, -37
    syscall
    li $v0, 11
    li $a0, '\n'
    syscall
    li $v0, 4
    la $a0, msg
    syscall
`+exitSeq+`
.data
msg: .asciiz "ok"
`, 100)
	if got := c.Output.String(); got != "-37\nok" {
		t.Fatalf("output: %q", got)
	}
}

func TestExitCode(t *testing.T) {
	c := run(t, `
main:
    li $a0, 3
    li $v0, 17
    syscall
`, 100)
	if c.ExitCode != 3 {
		t.Fatalf("exit code: %d", c.ExitCode)
	}
}

func TestExecRecordFields(t *testing.T) {
	p, err := asm.Assemble(`
main:
    li   $t0, 300
    li   $t1, 4
    addu $t2, $t0, $t1
    sw   $t2, 0($sp)
    lw   $t3, 0($sp)
    beq  $t2, $t3, done
    nop
done:
` + exitSeq)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.NewMemory()
	p.LoadInto(m)
	c := New(m, p.Entry, asm.DefaultStackTop)

	var recs []Exec
	for !c.Done {
		e, err := step(c)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, e)
	}
	// recs: li(addiu), li(addiu), addu, sw, lw, beq, li, syscall
	addu := recs[2]
	if !addu.ReadsA || !addu.ReadsB || addu.SrcA != 300 || addu.SrcB != 4 {
		t.Errorf("addu sources: %+v", addu)
	}
	if !addu.HasDest || addu.Dest != isa.RegT2 || addu.Result != 304 {
		t.Errorf("addu dest: %+v", addu)
	}
	sw := recs[3]
	if sw.MemWidth != 4 || sw.Addr != asm.DefaultStackTop || sw.StoreVal != 304 {
		t.Errorf("sw record: %+v", sw)
	}
	if sw.HasDest {
		t.Error("sw must not write a register")
	}
	lw := recs[4]
	if lw.Loaded != 304 || lw.Result != 304 || lw.MemWidth != 4 {
		t.Errorf("lw record: %+v", lw)
	}
	beq := recs[5]
	if !beq.Taken {
		t.Error("beq should be taken")
	}
	if beq.NextPC != beq.Inst.BranchTarget(beq.PC) {
		t.Errorf("beq target: %#x", beq.NextPC)
	}
}

func TestErrorsSurface(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"main:\n lw $t0, 2($zero)\n", "misaligned"},
		{"main:\n li $v0, 999\n syscall\n", "unknown syscall"},
		{"main:\n break\n", "BREAK"},
	}
	for _, c := range cases {
		p, err := asm.Assemble(c.src)
		if err != nil {
			t.Fatalf("assemble: %v", err)
		}
		m := mem.NewMemory()
		p.LoadInto(m)
		cpu := New(m, p.Entry, asm.DefaultStackTop)
		_, err = cpu.Run(100)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: err = %v, want contains %q", c.src, err, c.want)
		}
	}
}

func TestStepAfterExitFails(t *testing.T) {
	c := run(t, "main:\n"+exitSeq, 10)
	if _, err := step(c); err == nil {
		t.Fatal("step after exit should fail")
	}
}

func TestRunRespectsMax(t *testing.T) {
	p, err := asm.Assemble("main:\nloop: j loop\n")
	if err != nil {
		t.Fatal(err)
	}
	m := mem.NewMemory()
	p.LoadInto(m)
	c := New(m, p.Entry, asm.DefaultStackTop)
	n, err := c.Run(50)
	if err != nil || n != 50 || c.Done {
		t.Fatalf("n=%d err=%v done=%v", n, err, c.Done)
	}
}

// Fibonacci both iteratively in assembly and natively; the register result
// must match.
func TestFibonacci(t *testing.T) {
	c := run(t, `
main:
    li   $t0, 20      # n
    li   $t1, 0       # fib(0)
    li   $t2, 1       # fib(1)
fib:
    blez $t0, done
    addu $t3, $t1, $t2
    move $t1, $t2
    move $t2, $t3
    addiu $t0, $t0, -1
    j    fib
done:
    move $s0, $t1
`+exitSeq, 1000)
	fib := func(n int) uint32 {
		a, b := uint32(0), uint32(1)
		for i := 0; i < n; i++ {
			a, b = b, a+b
		}
		return a
	}
	if c.Regs[isa.RegS0] != fib(20) {
		t.Fatalf("fib(20): got %d want %d", c.Regs[isa.RegS0], fib(20))
	}
}

func TestRecursiveFactorialWithStack(t *testing.T) {
	c := run(t, `
main:
    li   $a0, 10
    jal  fact
    move $s0, $v0
`+exitSeq+`
fact:
    addiu $sp, $sp, -8
    sw    $ra, 4($sp)
    sw    $a0, 0($sp)
    li    $v0, 1
    blez  $a0, fact_ret
    addiu $a0, $a0, -1
    jal   fact
    lw    $a0, 0($sp)
    mul   $v0, $v0, $a0
fact_ret:
    lw    $ra, 4($sp)
    addiu $sp, $sp, 8
    jr    $ra
`, 10000)
	if c.Regs[isa.RegS0] != 3628800 {
		t.Fatalf("10! = %d", c.Regs[isa.RegS0])
	}
}
