// Package repro's root benchmark harness: one testing.B benchmark per table
// and figure of the paper. Each iteration regenerates the experiment from
// scratch (fresh models, fresh caches) and reports the headline metric of
// that table/figure via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. cmd/sigtables prints the full tables.
package repro

import (
	"context"
	"testing"

	"repro/internal/activity"
	"repro/internal/bench"
	"repro/internal/icomp"
	"repro/internal/pcincr"
	"repro/internal/pipeline"
	"repro/internal/sigalu"
	"repro/internal/trace"
)

// ctx drives every benchmark run; none is cancelled.
var ctx = context.Background()

// pcStream adapts a per-row (PC, next PC) function to trace.Consumer.
type pcStream func(pc, nextPC uint32)

func (f pcStream) ConsumeBlock(b *trace.Block) {
	for i, pc := range b.PC {
		next := b.EndNextPC
		if i+1 < len(b.PC) {
			next = b.PC[i+1]
		}
		f(pc, next)
	}
}

// capture records bm's trace for one replay. Every iteration captures
// afresh, so the interpreter run stays charged to the experiment.
func capture(b *testing.B, bm bench.Benchmark) *trace.Capture {
	b.Helper()
	cp, err := trace.CaptureRun(ctx, bm)
	if err != nil {
		b.Fatal(err)
	}
	return cp
}

// suiteRecoder builds the profile-driven recoder once per process (the
// paper's Table 3 profiling step); its cost is charged to
// BenchmarkTable3FunctProfile, which measures exactly that step.
var suiteRecoder *icomp.Recoder

func recoder(b *testing.B) *icomp.Recoder {
	b.Helper()
	if suiteRecoder == nil {
		rc, _, err := trace.SuiteRecoder(bench.All())
		if err != nil {
			b.Fatal(err)
		}
		suiteRecoder = rc
	}
	return suiteRecoder
}

// BenchmarkTable1Patterns regenerates the significant-byte pattern
// frequencies (Table 1) over the full suite and reports the share of the
// dominant single-byte pattern.
func BenchmarkTable1Patterns(b *testing.B) {
	rc := recoder(b)
	for i := 0; i < b.N; i++ {
		ps := activity.NewPatternStats()
		for _, bm := range bench.All() {
			if err := capture(b, bm).ReplayBlocks(ctx, rc, ps); err != nil {
				b.Fatal(err)
			}
		}
		rows := ps.Rows()
		b.ReportMetric(rows[0].Percent, "top-pattern-%")
		b.ReportMetric(ps.TwoBitCoverage(), "2bit-coverage-%")
	}
}

// BenchmarkTable2PCIncrement regenerates the block-serial PC increment
// estimates (Table 2): the analytic series cross-checked against an
// empirical run over the traced PC stream of the suite.
func BenchmarkTable2PCIncrement(b *testing.B) {
	rc := recoder(b)
	for i := 0; i < b.N; i++ {
		emp := pcincr.NewEmpirical(8)
		for _, bm := range bench.All() {
			consumer := pcStream(func(pc, nextPC uint32) {
				if nextPC == pc+4 {
					emp.Step(pc >> 2)
				}
			})
			if err := capture(b, bm).ReplayBlocks(ctx, rc, consumer); err != nil {
				b.Fatal(err)
			}
		}
		aAnalytic, _ := pcincr.Analytic(8)
		b.ReportMetric(emp.Activity(), "bits/incr-empirical")
		b.ReportMetric(aAnalytic, "bits/incr-analytic")
	}
}

// BenchmarkTable3FunctProfile regenerates the dynamic function-code
// histogram (Table 3) and reports the coverage of the recoded top-8.
func BenchmarkTable3FunctProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		counts, err := trace.FunctProfile(bench.All())
		if err != nil {
			b.Fatal(err)
		}
		var total, top uint64
		for _, n := range counts {
			total += n
		}
		for _, fn := range icomp.TopFuncts(counts, 8) {
			top += counts[fn]
		}
		b.ReportMetric(100*float64(top)/float64(total), "top8-coverage-%")
	}
}

// activityBench drives Tables 5 and 6: full-suite activity accounting at
// the given granularity, reporting the mean reduction of the RF-read and
// ALU columns.
func activityBench(b *testing.B, g int) {
	rc := recoder(b)
	for i := 0; i < b.N; i++ {
		var rfSum, aluSum float64
		suite := bench.All()
		for _, bm := range suite {
			src := capture(b, bm)
			m, err := src.NewMemory()
			if err != nil {
				b.Fatal(err)
			}
			col := activity.NewCollector(g, rc, m)
			if err := src.ReplayBlocksOn(ctx, m, rc, col); err != nil {
				b.Fatal(err)
			}
			rfSum += col.Counts().RFRead.Reduction()
			aluSum += col.Counts().ALU.Reduction()
		}
		b.ReportMetric(rfSum/float64(len(suite)), "rfread-saving-%")
		b.ReportMetric(aluSum/float64(len(suite)), "alu-saving-%")
	}
}

// BenchmarkTable5ActivityByte regenerates Table 5 (byte granularity).
func BenchmarkTable5ActivityByte(b *testing.B) { activityBench(b, 1) }

// BenchmarkTable6ActivityHalf regenerates Table 6 (halfword granularity).
func BenchmarkTable6ActivityHalf(b *testing.B) { activityBench(b, 2) }

// cpiBench drives the CPI figures: the named models over the full suite,
// reporting each model's mean CPI.
func cpiBench(b *testing.B, names ...string) {
	rc := recoder(b)
	for i := 0; i < b.N; i++ {
		sums := make([]float64, len(names))
		suite := bench.All()
		for _, bm := range suite {
			models := make([]*pipeline.Model, len(names))
			consumers := make([]trace.Consumer, len(names))
			for j, n := range names {
				models[j] = pipeline.New(n)
				consumers[j] = models[j]
			}
			if err := capture(b, bm).ReplayBlocks(ctx, rc, consumers...); err != nil {
				b.Fatal(err)
			}
			for j, m := range models {
				sums[j] += m.Result().CPI()
			}
		}
		for j, n := range names {
			b.ReportMetric(sums[j]/float64(len(suite)), n+"-CPI")
		}
	}
}

// BenchmarkFig4ByteSerialCPI regenerates Figure 4: baseline vs byte-serial
// (and the 16-bit serial variant discussed with it).
func BenchmarkFig4ByteSerialCPI(b *testing.B) {
	cpiBench(b, pipeline.NameBaseline32, pipeline.NameByteSerial, pipeline.NameHalfwordSerial)
}

// BenchmarkFig6SemiParallelCPI regenerates Figure 6: baseline vs byte
// semi-parallel vs byte-serial.
func BenchmarkFig6SemiParallelCPI(b *testing.B) {
	cpiBench(b, pipeline.NameBaseline32, pipeline.NameSemiParallel, pipeline.NameByteSerial)
}

// BenchmarkFig8SkewedCPI regenerates Figure 8: baseline vs byte-parallel
// skewed.
func BenchmarkFig8SkewedCPI(b *testing.B) {
	cpiBench(b, pipeline.NameBaseline32, pipeline.NameParallelSkewed)
}

// BenchmarkFig10ParallelCPI regenerates Figure 10: baseline vs
// skewed+bypass vs compressed.
func BenchmarkFig10ParallelCPI(b *testing.B) {
	cpiBench(b, pipeline.NameBaseline32, pipeline.NameParallelSkewedBypass, pipeline.NameParallelCompressed)
}

// BenchmarkBottleneckStudy regenerates the §5 stall analysis of the
// byte-serial design, reporting the EX structural share (paper: 72%).
func BenchmarkBottleneckStudy(b *testing.B) {
	rc := recoder(b)
	for i := 0; i < b.N; i++ {
		var ex, total uint64
		for _, bm := range bench.All() {
			m := pipeline.NewByteSerial()
			if err := capture(b, bm).ReplayBlocks(ctx, rc, m); err != nil {
				b.Fatal(err)
			}
			for k, v := range m.Result().Stalls {
				total += v
				if k == pipeline.StallStructEX {
					ex += v
				}
			}
		}
		b.ReportMetric(100*float64(ex)/float64(total), "ex-stall-share-%")
	}
}

// BenchmarkInterpreter measures raw functional-simulation speed
// (instructions per second of the substrate itself).
func BenchmarkInterpreter(b *testing.B) {
	bm, _ := bench.ByName("crc32")
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		c, err := bm.NewCPU()
		if err != nil {
			b.Fatal(err)
		}
		n, err := c.Run(bm.MaxInsts)
		if err != nil {
			b.Fatal(err)
		}
		insts += n
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkAblationScheme regenerates the 2-bit vs 3-bit scheme comparison
// (§2.1's trade-off), reporting both schemes' mean RF-read savings.
func BenchmarkAblationScheme(b *testing.B) {
	rc := recoder(b)
	for i := 0; i < b.N; i++ {
		var rf3, rf2 float64
		suite := bench.All()
		for _, bm := range suite {
			src := capture(b, bm)
			m, err := src.NewMemory()
			if err != nil {
				b.Fatal(err)
			}
			c3 := activity.NewCollector(1, rc, m)
			c2 := activity.NewCollectorScheme(1, activity.Scheme2, rc, m)
			if err := src.ReplayBlocksOn(ctx, m, rc, c3, c2); err != nil {
				b.Fatal(err)
			}
			rf3 += c3.Counts().RFRead.Reduction()
			rf2 += c2.Counts().RFRead.Reduction()
		}
		b.ReportMetric(rf3/float64(len(suite)), "rfread-3bit-%")
		b.ReportMetric(rf2/float64(len(suite)), "rfread-2bit-%")
	}
}

// BenchmarkAblationPrediction regenerates the branch-prediction study (§3
// future work), reporting baseline CPI with and without the predictor.
func BenchmarkAblationPrediction(b *testing.B) {
	rc := recoder(b)
	for i := 0; i < b.N; i++ {
		var plain, predicted float64
		suite := bench.All()
		for _, bm := range suite {
			m0 := pipeline.NewBaseline32()
			m1 := pipeline.NewPredicted(pipeline.NameBaseline32)
			if err := capture(b, bm).ReplayBlocks(ctx, rc, m0, m1); err != nil {
				b.Fatal(err)
			}
			plain += m0.Result().CPI()
			predicted += m1.Result().CPI()
		}
		b.ReportMetric(plain/float64(len(suite)), "baseline-CPI")
		b.ReportMetric(predicted/float64(len(suite)), "baseline+bp-CPI")
	}
}

// BenchmarkAblationPartition regenerates the word-partition study (§2.1
// future work), reporting the best candidate's and the paper byte scheme's
// mean stored bits per operand value.
func BenchmarkAblationPartition(b *testing.B) {
	rc := recoder(b)
	for i := 0; i < b.N; i++ {
		ps := activity.NewPartitionStats()
		for _, bm := range bench.All() {
			if err := capture(b, bm).ReplayBlocks(ctx, rc, ps); err != nil {
				b.Fatal(err)
			}
		}
		rows := ps.Rows()
		b.ReportMetric(rows[0].MeanBits, "best-bits/value")
		for _, row := range rows {
			if row.Name == "8-8-8-8 (paper byte)" {
				b.ReportMetric(row.MeanBits, "paper-byte-bits/value")
			}
		}
	}
}

// BenchmarkTable4Derivation regenerates the exact Case-3 exception classes
// (Table 4) by exhaustive enumeration, reporting the class count.
func BenchmarkTable4Derivation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := sigalu.DeriveTable4()
		b.ReportMetric(float64(len(rows)), "exception-classes")
	}
}
