// Pipeline comparison: run one benchmark (or the whole suite) through all
// seven pipeline organizations and print the CPI series of Figures 4, 6, 8
// and 10.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	name := flag.String("bench", "", "single benchmark (default: whole suite)")
	flag.Parse()

	suite := bench.All()
	if *name != "" {
		b, ok := bench.ByName(*name)
		if !ok {
			log.Fatalf("unknown benchmark %q; available: %v", *name, bench.Names())
		}
		suite = []bench.Benchmark{b}
	}

	rc, _, err := trace.SuiteRecoder(bench.All())
	if err != nil {
		log.Fatal(err)
	}

	names := pipeline.AllNames()
	headers := append([]string{"benchmark"}, names...)
	t := stats.NewTable("CPI by pipeline organization", headers...)
	sums := make([]float64, len(names))
	for _, b := range suite {
		models := pipeline.NewAll()
		consumers := make([]trace.Consumer, len(models))
		for i, m := range models {
			consumers[i] = m
		}
		if err := trace.NewLive(b).ReplayBlocks(context.Background(), rc, consumers...); err != nil {
			log.Fatal(err)
		}
		cells := []string{b.Name}
		for i, m := range models {
			cpi := m.Result().CPI()
			sums[i] += cpi
			cells = append(cells, fmt.Sprintf("%.3f", cpi))
		}
		t.AddStringRow(cells...)
	}
	if len(suite) > 1 {
		avg := []string{"AVG"}
		for _, s := range sums {
			avg = append(avg, fmt.Sprintf("%.3f", s/float64(len(suite))))
		}
		t.AddStringRow(avg...)
		rel := []string{"vs baseline"}
		base := sums[0]
		for _, s := range sums {
			rel = append(rel, fmt.Sprintf("%+.1f%%", 100*(s/base-1)))
		}
		t.AddStringRow(rel...)
	}
	fmt.Println(t.String())
	fmt.Println("paper reference: byte-serial +79%, halfword-serial CPI 1.96, semi-parallel +24%,")
	fmt.Println("compressed +6%, skewed close to baseline, skewed+bypass +2% (MICRO-33, §4-§6)")
}
