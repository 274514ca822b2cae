// Activity study: reproduce one row of the paper's Table 5/6 — per-stage
// activity reductions for a single benchmark at byte and halfword
// granularity — plus its operand significance histogram (Table 1 style).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro/internal/activity"
	"repro/internal/bench"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	name := flag.String("bench", "rawcaudio", "benchmark to study")
	flag.Parse()

	b, ok := bench.ByName(*name)
	if !ok {
		log.Fatalf("unknown benchmark %q; available: %v", *name, bench.Names())
	}

	// Profile the whole suite once to build the instruction recoder (the
	// paper recodes the top-8 function codes from a Mediabench profile).
	rc, _, err := trace.SuiteRecoder(bench.All())
	if err != nil {
		log.Fatal(err)
	}

	// Capture the benchmark's trace once; the collectors read cache-line
	// contents from a fresh image the replayed stores are applied to.
	src, err := trace.CaptureRun(context.Background(), b)
	if err != nil {
		log.Fatal(err)
	}
	image, err := src.NewMemory()
	if err != nil {
		log.Fatal(err)
	}
	byteCol := activity.NewCollector(1, rc, image)
	halfCol := activity.NewCollector(2, rc, image)
	patterns := activity.NewPatternStats()
	if err := src.ReplayBlocksOn(context.Background(), image, rc, byteCol, halfCol, patterns); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s: %s\n%d dynamic instructions, checksum verified\n\n",
		b.Name, b.Description, byteCol.Counts().Insts)

	t := stats.NewTable("Per-stage activity reduction", "stage", "byte (Table 5)", "halfword (Table 6)")
	bRow, hRow := byteCol.Counts().Row(), halfCol.Counts().Row()
	for i, s := range activity.Stages() {
		t.AddStringRow(s, stats.Pct(bRow[i]), stats.Pct(hRow[i]))
	}
	fmt.Println(t.String())

	pt := stats.NewTable("Operand significance patterns (Table 1 style)", "pattern", "%", "cumulative %")
	for _, row := range patterns.Rows() {
		pt.AddStringRow(row.Pattern, fmt.Sprintf("%.1f", row.Percent), fmt.Sprintf("%.1f", row.Cumulative))
	}
	fmt.Println(pt.String())
	fmt.Printf("2-bit scheme coverage: %.1f%% of %d operand values\n",
		patterns.TwoBitCoverage(), patterns.Total())
}
