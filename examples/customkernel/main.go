// Custom kernel: author your own MIPS assembly workload, validate it
// functionally, and measure how much a significance-compressed pipeline
// would save on it — the workflow for evaluating a new embedded kernel
// against the paper's designs.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/activity"
	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/icomp"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// A saturating 16-bit dot product — typical DSP inner loop.
const kernel = `
main:
    la   $s0, va
    la   $s1, vb
    li   $s2, 64         # elements
    li   $s3, 0          # accumulator
dot:
    lh   $t0, 0($s0)
    lh   $t1, 0($s1)
    mult $t0, $t1
    mflo $t2
    addu $s3, $s3, $t2
    addiu $s0, $s0, 2
    addiu $s1, $s1, 2
    addiu $s2, $s2, -1
    bgtz $s2, dot
    move $a0, $s3
    li   $v0, 1
    syscall
    li   $v0, 10
    syscall
.data
va: .half  3,  -1,  4,   1,  -5,  9,  2, -6,  5,  3,  5,  -8,  9,  7,  9, 3
    .half  2,  -7,  1,   8,   2,  8, -1,  8,  2,  8,  4,   5,  9,  0,  4, 5
    .half  2,   3,  5,  -3,   6,  0,  2,  8,  7,  4,  7,   1,  3, -5,  2, 6
    .half  6,   2,  3,   0,   7,  9,  5,  0,  2,  8,  8,   4,  1,  9,  7, 1
vb: .half  1,   4,  1,   4,   2,  1,  3,  5,  6,  2,  3,   7,  3,  0,  9, 5
    .half  0,   5,  8,  -8,   8,  2,  0,  9,  4,  9,  4,   7,  1,  0,  2, 1
    .half -3,   9,  8,   5,   4,  8,  8,  7,  5,  6,  4,   3,  2,  1,  0, 9
    .half  8,   7,  6,   5,   4,  3,  2,  1,  9,  8,  7,   6,  5,  4,  3, 2
`

func main() {
	prog, err := asm.Assemble(kernel)
	if err != nil {
		log.Fatal(err)
	}

	// Functional check first.
	m := mem.NewMemory()
	prog.LoadInto(m)
	c := cpu.New(m, prog.Entry, asm.DefaultStackTop)
	if _, err := c.Run(100_000); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dot product = %s (%d instructions)\n\n", c.Output.String(), c.Retired)

	// Now the measurement run: re-execute under the trace harness with a
	// static recoder (a custom kernel has no suite profile). The collector
	// reads its own copy of the initial image, which the trace's stores
	// are applied to as the blocks go out.
	rc := icomp.MustNewRecoder(icomp.DefaultTopFuncts())
	m2 := mem.NewMemory()
	prog.LoadInto(m2)
	c2 := cpu.New(m2, prog.Entry, asm.DefaultStackTop)
	image := mem.NewMemory()
	prog.LoadInto(image)

	byteCol := activity.NewCollector(1, rc, image)
	base := pipeline.NewBaseline32()
	serial := pipeline.NewByteSerial()
	bypass := pipeline.NewParallelSkewedBypass()

	if _, err := trace.Interpret(context.Background(), c2, 100_000, image, rc, byteCol, base, serial, bypass); err != nil {
		log.Fatal(err)
	}

	fmt.Println("pipeline cost on this kernel:")
	b := base.Result()
	for _, r := range []pipeline.Result{b, serial.Result(), bypass.Result()} {
		fmt.Printf("  %-14s CPI %.3f (%+.1f%% vs baseline)\n",
			r.Model, r.CPI(), 100*(r.CPI()/b.CPI()-1))
	}

	fmt.Println("\nactivity saved by significance compression (byte granularity):")
	row := byteCol.Counts().Row()
	for i, s := range activity.Stages() {
		fmt.Printf("  %-14s %5.1f%%\n", s, row[i])
	}
}
