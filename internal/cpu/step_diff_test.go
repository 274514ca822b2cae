package cpu_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/cpu"
	"repro/internal/diffsim"
	"repro/internal/isa"
	"repro/internal/mem"
)

// lockstep steps got with the table-driven Step and want with RefStep,
// two machines loaded with the same image, until want halts, a step fails
// or limit steps have run. It fails the test at the first Exec field,
// error or architected state that differs, and returns the error both
// steps failed with (nil if none did).
func lockstep(t *testing.T, name string, got, want *cpu.CPU, limit uint64) error {
	t.Helper()
	var e cpu.Exec
	var failed error
	for n := uint64(0); n < limit && !want.Done; n++ {
		we, werr := want.RefStep()
		err := got.Step(&e)
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("%s: step %d at PC %#x: error %v, reference %v", name, n, want.PC, err, werr)
		}
		if err != nil {
			failed = err
			break
		}
		if e != we {
			t.Fatalf("%s: step %d differs:\n got       %+v\n reference %+v", name, n, e, we)
		}
	}
	if got.Regs != want.Regs || got.HI != want.HI || got.LO != want.LO || got.PC != want.PC ||
		got.Done != want.Done || got.ExitCode != want.ExitCode || got.Retired != want.Retired {
		t.Fatalf("%s: final state differs:\n got       regs %x hi %#x lo %#x pc %#x done %v exit %d retired %d\n reference regs %x hi %#x lo %#x pc %#x done %v exit %d retired %d",
			name, got.Regs, got.HI, got.LO, got.PC, got.Done, got.ExitCode, got.Retired,
			want.Regs, want.HI, want.LO, want.PC, want.Done, want.ExitCode, want.Retired)
	}
	if got.Mem.Footprint() != want.Mem.Footprint() {
		t.Fatalf("%s: memory footprint %d pages, reference %d", name, got.Mem.Footprint(), want.Mem.Footprint())
	}
	if !bytes.Equal(got.Output.Bytes(), want.Output.Bytes()) {
		t.Fatalf("%s: output %q, reference %q", name, got.Output.Bytes(), want.Output.Bytes())
	}
	return failed
}

// TestStepMatchesReference steps every benchmark of the suite and a range
// of generated differential programs on the table-driven Step and on the
// reference step in lockstep.
func TestStepMatchesReference(t *testing.T) {
	for _, b := range bench.All() {
		got, err := b.NewCPU()
		if err != nil {
			t.Fatal(err)
		}
		want, _ := b.NewCPU()
		if err := lockstep(t, b.Name, got, want, b.MaxInsts); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if !want.Done || want.Regs[bench.ChecksumReg] != b.Checksum {
			t.Fatalf("%s: did not finish with its checksum", b.Name)
		}
	}
	seeds := uint64(300)
	if testing.Short() {
		seeds = 50
	}
	for seed := uint64(0); seed < seeds; seed++ {
		p := diffsim.Generate(seed, diffsim.Config{})
		got, err := p.NewCPU()
		if err != nil {
			t.Fatal(err)
		}
		want, _ := p.NewCPU()
		name := fmt.Sprintf("diffsim seed %d", seed)
		if err := lockstep(t, name, got, want, 1<<22); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !want.Done {
			t.Fatalf("%s: did not halt", name)
		}
	}
}

// assemble loads src into two fresh machines for lockstep.
func assemble(t *testing.T, src string) (got, want *cpu.CPU) {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	load := func() *cpu.CPU {
		m := mem.NewMemory()
		p.LoadInto(m)
		return cpu.New(m, p.Entry, asm.DefaultStackTop)
	}
	return load(), load()
}

const exitSeq = `
    li $v0, 10
    syscall
`

// TestStepSelfModifyingText runs a program that executes one of its own
// text words, overwrites it with another instruction and executes it
// again: the second pass must run the new word.
func TestStepSelfModifyingText(t *testing.T) {
	got, want := assemble(t, fmt.Sprintf(`
main:
    li    $s1, 0
again:
patch:
    addiu $s0, $zero, 1
    bne   $s1, $zero, done
    li    $s1, 1
    la    $t0, patch
    li    $t1, %#x
    sw    $t1, 0($t0)
    j     again
done:
`+exitSeq, isa.EncodeI(isa.OpADDIU, isa.RegZero, isa.RegS0, 7)))
	if err := lockstep(t, "self-modifying", got, want, 1000); err != nil {
		t.Fatal(err)
	}
	if !got.Done || got.Regs[isa.RegS0] != 7 {
		t.Fatalf("done %v, $s0 = %d; want the patched word's 7", got.Done, got.Regs[isa.RegS0])
	}
}

// TestStepCodeInDataSegment runs a routine the program writes into its
// data segment, calls, rewrites and calls again. The routine sits at the
// data base, whose decode-table entry is also the one of the first text
// word.
func TestStepCodeInDataSegment(t *testing.T) {
	got, want := assemble(t, fmt.Sprintf(`
    .text
main:
    la    $t0, buf
    li    $t1, %#x
    sw    $t1, 0($t0)
    li    $t1, %#x
    sw    $t1, 4($t0)
    jalr  $t0
    move  $s0, $v1
    li    $t1, %#x
    sw    $t1, 0($t0)
    jalr  $t0
    addu  $s0, $s0, $v1
`+exitSeq+`
    .data
buf:
    .word 0, 0
`,
		isa.EncodeI(isa.OpADDIU, isa.RegZero, isa.RegV1, 5),
		isa.EncodeR(isa.FnJR, isa.RegRA, 0, 0, 0),
		isa.EncodeI(isa.OpADDIU, isa.RegZero, isa.RegV1, 9)))
	if got.PC>>2%1024 != asm.DefaultDataBase>>2%1024 {
		t.Fatalf("entry %#x and data base %#x do not share a table entry", got.PC, asm.DefaultDataBase)
	}
	if err := lockstep(t, "code in data", got, want, 1000); err != nil {
		t.Fatal(err)
	}
	if !got.Done || got.Regs[isa.RegS0] != 14 {
		t.Fatalf("done %v, $s0 = %d; want 5 + 9", got.Done, got.Regs[isa.RegS0])
	}
}

// TestStepValidToInvalidWord overwrites an executed word with an undefined
// encoding: the next fetch of that PC must fail exactly as the reference
// does, fail again on every retry (an invalid word is never cached), and
// run again once the word is valid.
func TestStepValidToInvalidWord(t *testing.T) {
	const bad = 0xfc000000 // opcode 0x3f is undefined
	got, want := assemble(t, fmt.Sprintf(`
main:
    li    $s1, 0
again:
target:
    addiu $s0, $s0, 1
    bne   $s1, $zero, done
    li    $s1, 1
    la    $t0, target
    li    $t1, %#x
    sw    $t1, 0($t0)
    j     again
done:
`+exitSeq, bad))
	err := lockstep(t, "valid to invalid", got, want, 1000)
	if err == nil || !strings.Contains(err.Error(), "undefined opcode") {
		t.Fatalf("err = %v, want an undefined-opcode fault", err)
	}
	for i := 0; i < 2; i++ {
		if again := lockstep(t, "retry", got, want, 1); again == nil || again.Error() != err.Error() {
			t.Fatalf("retry %d: err = %v, want %v", i, again, err)
		}
	}
	target := got.PC
	restore := isa.EncodeI(isa.OpADDIU, isa.RegS0, isa.RegS0, 1)
	got.Mem.Store32(target, restore)
	want.Mem.Store32(target, restore)
	if err := lockstep(t, "restored", got, want, 1000); err != nil {
		t.Fatal(err)
	}
	if !got.Done || got.Regs[isa.RegS0] != 2 {
		t.Fatalf("done %v, $s0 = %d; want 2", got.Done, got.Regs[isa.RegS0])
	}
}

// TestStepAllocFree pins Step at zero heap allocations per instruction
// once its decode table exists.
func TestStepAllocFree(t *testing.T) {
	got, _ := assemble(t, `
main:
loop:
    addiu $t0, $t0, 1
    sw    $t0, 0($sp)
    lw    $t1, 0($sp)
    j     loop
`)
	var e cpu.Exec
	allocs := testing.AllocsPerRun(1000, func() {
		if err := got.Step(&e); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Step allocates %.1f per instruction", allocs)
	}
}
