package experiments

import (
	"context"
	"fmt"

	"repro/internal/bench"
	"repro/internal/energy"
	"repro/internal/pipeline"
	"repro/internal/sigalu"
	"repro/internal/stats"
	"repro/internal/trace"
)

// AblationScheme compares the 2-bit and 3-bit extension schemes (§2.1's
// trade-off: the 2-bit scheme has 6% instead of 9% storage overhead but
// cannot compress internal extension bytes). Columns are the
// storage/transport stages the scheme choice affects.
func (r *Results) AblationScheme() *stats.Table {
	t := stats.NewTable(
		"Ablation (§2.1): 3-bit per-byte scheme vs 2-bit count scheme, activity reduction (%)",
		"benchmark", "RFread 3b", "RFread 2b", "RFwrite 3b", "RFwrite 2b",
		"D$data 3b", "D$data 2b", "Latch 3b", "Latch 2b")
	var sums [8]float64
	for _, b := range r.Bench {
		vals := []float64{
			b.ByteAct.RFRead.Reduction(), b.Scheme2Act.RFRead.Reduction(),
			b.ByteAct.RFWrite.Reduction(), b.Scheme2Act.RFWrite.Reduction(),
			b.ByteAct.DCacheData.Reduction(), b.Scheme2Act.DCacheData.Reduction(),
			b.ByteAct.Latch.Reduction(), b.Scheme2Act.Latch.Reduction(),
		}
		cells := []string{b.Name}
		for i, v := range vals {
			sums[i] += v
			cells = append(cells, fmt.Sprintf("%.1f", v))
		}
		t.AddStringRow(cells...)
	}
	avg := []string{"AVG"}
	for _, s := range sums {
		avg = append(avg, fmt.Sprintf("%.1f", s/float64(len(r.Bench))))
	}
	t.AddStringRow(avg...)
	return t
}

// AblationPrediction reports the paper's future-work item: CPI of three
// representative designs with and without a bimodal branch predictor.
func (r *Results) AblationPrediction() *stats.Table {
	bases := []string{
		pipeline.NameBaseline32, pipeline.NameByteSerial, pipeline.NameParallelSkewedBypass,
	}
	headers := []string{"benchmark"}
	for _, b := range bases {
		headers = append(headers, b, b+"+bp")
	}
	headers = append(headers, "pred.acc")
	t := stats.NewTable(
		"Ablation (§3 future work): bimodal branch prediction (CPI)", headers...)
	for _, b := range r.Bench {
		cells := []string{b.Name}
		for _, base := range bases {
			cells = append(cells, fmt.Sprintf("%.3f", b.CPI[base]),
				fmt.Sprintf("%.3f", b.CPI[base+"+bp"]))
		}
		cells = append(cells, fmt.Sprintf("%.1f%%", 100*b.PredAcc))
		t.AddStringRow(cells...)
	}
	avg := []string{"AVG"}
	for _, base := range bases {
		avg = append(avg, fmt.Sprintf("%.3f", r.MeanCPI(base)),
			fmt.Sprintf("%.3f", r.MeanCPI(base+"+bp")))
	}
	avg = append(avg, "")
	t.AddStringRow(avg...)
	return t
}

// AblationPartition renders the §2.1 future-work study: stored bits per
// operand value for candidate word partitions, including each scheme's
// extension-bit overhead (32-bit baseline = 32 bits).
func (r *Results) AblationPartition() *stats.Table {
	t := stats.NewTable(
		"Ablation (§2.1 future work): word-partition schemes, stored bits per operand value",
		"partition", "ext bits", "mean bits/value", "saving vs 32b")
	for _, row := range r.Partitions.Rows() {
		t.AddStringRow(row.Name,
			fmt.Sprintf("%d", row.Segments.ExtBits()),
			fmt.Sprintf("%.2f", row.MeanBits),
			fmt.Sprintf("%.1f%%", row.Saving))
	}
	return t
}

// EnergySummary converts the byte-granularity activity tallies into the
// first-order relative energy estimates of internal/energy and compares
// designs by energy-delay product: the baseline machine runs at baseline
// activity, the compressed machines at compressed activity, each with its
// own cycle count.
func (r *Results) EnergySummary() *stats.Table {
	w := energy.DefaultWeights()
	t := stats.NewTable(
		"Energy estimate (relative units; §7's first-order step)",
		"benchmark", "energy saving", "EDP base", "EDP byteserial", "EDP skewed+bypass", "EDP best")
	for _, b := range r.Bench {
		est := energy.FromCounts(b.ByteAct, w)
		base, comp := est.Totals()
		baseCycles := uint64(b.CPI[pipeline.NameBaseline32] * float64(b.Insts))
		serialCycles := uint64(b.CPI[pipeline.NameByteSerial] * float64(b.Insts))
		bypassCycles := uint64(b.CPI[pipeline.NameParallelSkewedBypass] * float64(b.Insts))
		edpBase := energy.EDP(base, baseCycles)
		edpSerial := energy.EDP(comp, serialCycles)
		edpBypass := energy.EDP(comp, bypassCycles)
		best := "baseline"
		switch {
		case edpBypass <= edpBase && edpBypass <= edpSerial:
			best = "skewed+bypass"
		case edpSerial <= edpBase:
			best = "byteserial"
		}
		t.AddStringRow(b.Name,
			fmt.Sprintf("%.1f%%", est.Saving()),
			fmt.Sprintf("%.3g", edpBase),
			fmt.Sprintf("%.3g", edpSerial),
			fmt.Sprintf("%.3g", edpBypass),
			best)
	}
	return t
}

// AblationInterpretation quantifies the modeling decisions recorded in
// DESIGN.md §5 by also running the readings we rejected: the compressed
// design with strictly-blocking two-cycle stages, and the skewed design
// with branch resolution only after the last byte slice. It runs its own
// traces (the alternates are not part of the cached one-pass evaluation).
func AblationInterpretation() (*stats.Table, error) {
	ctx := context.Background()
	suite := bench.All()
	rc, _, err := trace.SuiteRecoder(suite)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		"Ablation (DESIGN.md §5): adopted vs rejected model interpretations (mean CPI)",
		"model", "adopted", "rejected", "penalty of rejected reading")
	var baseSum, compSum, compOccSum, skewSum, skewLateSum float64
	for _, b := range suite {
		base := pipeline.NewBaseline32()
		comp := pipeline.New(pipeline.NameParallelCompressed)
		compOcc := pipeline.NewParallelCompressedOccupancy()
		skew := pipeline.New(pipeline.NameParallelSkewed)
		skewLate := pipeline.NewParallelSkewedLateBranch()
		cp, err := trace.CaptureRun(ctx, b)
		if err != nil {
			return nil, err
		}
		if err := cp.ReplayBlocks(ctx, rc, base, comp, compOcc, skew, skewLate); err != nil {
			return nil, err
		}
		baseSum += base.Result().CPI()
		compSum += comp.Result().CPI()
		compOccSum += compOcc.Result().CPI()
		skewSum += skew.Result().CPI()
		skewLateSum += skewLate.Result().CPI()
	}
	n := float64(len(suite))
	t.AddStringRow("compressed (banked latency vs blocking occupancy)",
		fmt.Sprintf("%.3f (%+.1f%%)", compSum/n, 100*(compSum/baseSum-1)),
		fmt.Sprintf("%.3f (%+.1f%%)", compOccSum/n, 100*(compOccSum/baseSum-1)),
		fmt.Sprintf("%+.1f%%", 100*(compOccSum/compSum-1)))
	t.AddStringRow("skewed (per-slice vs last-slice branch resolve)",
		fmt.Sprintf("%.3f (%+.1f%%)", skewSum/n, 100*(skewSum/baseSum-1)),
		fmt.Sprintf("%.3f (%+.1f%%)", skewLateSum/n, 100*(skewLateSum/baseSum-1)),
		fmt.Sprintf("%+.1f%%", 100*(skewLateSum/skewSum-1)))
	return t, nil
}

// Table4 renders the exact derivation of the paper's Table 4 (Case-3
// exception classes of the significance adder), computed by exhaustive
// enumeration in internal/sigalu.
func Table4() *stats.Table {
	t := stats.NewTable(
		"Table 4 (derived exactly): Case-3 exception classes",
		"preceding-byte tops", "condition", "exception cases", "of class")
	for _, r := range sigalu.DeriveTable4() {
		cond := "always"
		if r.CarryDependent {
			cond = "bit-6 carry dependent"
		}
		t.AddStringRow(
			fmt.Sprintf("%02bxxxxxx + %02bxxxxxx", r.TopBitsA, r.TopBitsB),
			cond,
			fmt.Sprintf("%d", r.Exceptions),
			fmt.Sprintf("%d", r.Population))
	}
	return t
}

// BaselineComparison contrasts the paper's whole-pipeline significance
// compression with its starting point, Brooks & Martonosi's ALU-only
// narrow-operand gating (the paper's [1]): ALU savings side by side, and
// the stages only significance compression reaches.
func (r *Results) BaselineComparison() *stats.Table {
	t := stats.NewTable(
		"Comparison with Brooks-Martonosi operand gating (the paper's [1])",
		"benchmark", "ALU: BM-16", "ALU: sigcomp", "RFread: sigcomp", "Fetch: sigcomp", "Latches: sigcomp")
	var bmSum, sigSum float64
	for _, b := range r.Bench {
		bm := r.BM[b.Name]
		bmSum += bm.ALUSaving()
		sigSum += b.ByteAct.ALU.Reduction()
		t.AddStringRow(b.Name,
			fmt.Sprintf("%.1f", bm.ALUSaving()),
			fmt.Sprintf("%.1f", b.ByteAct.ALU.Reduction()),
			fmt.Sprintf("%.1f", b.ByteAct.RFRead.Reduction()),
			fmt.Sprintf("%.1f", b.ByteAct.Fetch.Reduction()),
			fmt.Sprintf("%.1f", b.ByteAct.Latch.Reduction()))
	}
	n := float64(len(r.Bench))
	t.AddStringRow("AVG", fmt.Sprintf("%.1f", bmSum/n), fmt.Sprintf("%.1f", sigSum/n), "", "", "")
	return t
}
