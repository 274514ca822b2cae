package activity

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/trace"
)

// suite runs every benchmark through byte and halfword collectors once.
var suiteResults = struct {
	byteCounts map[string]Counts
	halfCounts map[string]Counts
	patterns   *PatternStats
	fetch      *FetchStats
}{}

func runSuite(t testing.TB) {
	if suiteResults.byteCounts != nil {
		return
	}
	rc, _, err := trace.SuiteRecoder(bench.All())
	if err != nil {
		t.Fatal(err)
	}
	suiteResults.byteCounts = make(map[string]Counts)
	suiteResults.halfCounts = make(map[string]Counts)
	suiteResults.patterns = NewPatternStats()
	suiteResults.fetch = &FetchStats{}
	for _, b := range bench.All() {
		src, err := trace.CaptureRun(context.Background(), b)
		if err != nil {
			t.Fatal(err)
		}
		m, err := src.NewMemory()
		if err != nil {
			t.Fatal(err)
		}
		byteCol := NewCollector(1, rc, m)
		halfCol := NewCollector(2, rc, m)
		if err := src.ReplayBlocksOn(context.Background(), m, rc, byteCol, halfCol, suiteResults.patterns, suiteResults.fetch); err != nil {
			t.Fatal(err)
		}
		suiteResults.byteCounts[b.Name] = byteCol.Counts()
		suiteResults.halfCounts[b.Name] = halfCol.Counts()
	}
}

func averages(m map[string]Counts) []float64 {
	avg := make([]float64, 8)
	for _, c := range m {
		for i, v := range c.Row() {
			avg[i] += v
		}
	}
	for i := range avg {
		avg[i] /= float64(len(m))
	}
	return avg
}

// The paper's Table 5 average row is 18.2 / 46.5 / 42.1 / 33.2 / ~30 / ~1 /
// 73.3 / 42.2. We assert each average lands in a generous band around it —
// the substitution of workloads shifts absolute numbers, but the shape must
// hold (DESIGN.md §6).
func TestTable5ByteActivityBands(t *testing.T) {
	runSuite(t)
	avg := averages(suiteResults.byteCounts)
	names := Stages()
	bands := [][2]float64{
		{8, 35},  // Fetch (paper 18.2)
		{25, 70}, // RFread (46.5)
		{25, 65}, // RFwrite (42.1)
		{15, 55}, // ALU (33.2)
		{10, 55}, // D-cache data (~30)
		{-1, 5},  // D-cache tag (~1)
		{55, 85}, // PC increment (73.3)
		{25, 60}, // Latches (42.2)
	}
	for i, b := range bands {
		if avg[i] < b[0] || avg[i] > b[1] {
			t.Errorf("%s: average reduction %.1f%% outside band [%.0f, %.0f]",
				names[i], avg[i], b[0], b[1])
		}
		t.Logf("%s: %.1f%%", names[i], avg[i])
	}
}

// Table 6: halfword savings must be real but smaller than byte savings for
// the data stages (fetch is the same scheme in both tables).
func TestTable6HalfwordBelowByte(t *testing.T) {
	runSuite(t)
	byteAvg := averages(suiteResults.byteCounts)
	halfAvg := averages(suiteResults.halfCounts)
	names := Stages()
	for i := range names {
		if names[i] == "Fetch" || names[i] == "D-cache tag" {
			continue
		}
		if halfAvg[i] >= byteAvg[i] {
			t.Errorf("%s: halfword %.1f%% >= byte %.1f%%", names[i], halfAvg[i], byteAvg[i])
		}
		if halfAvg[i] <= 0 {
			t.Errorf("%s: halfword saving %.1f%% should be positive", names[i], halfAvg[i])
		}
		t.Logf("%s: byte %.1f%% / halfword %.1f%%", names[i], byteAvg[i], halfAvg[i])
	}
}

// Table 1 shape: the single-significant-byte pattern dominates; the four
// 2-bit-encodable patterns cover the large majority of operand values
// (paper: ~94%).
func TestTable1PatternShape(t *testing.T) {
	runSuite(t)
	rows := suiteResults.patterns.Rows()
	if rows[0].Pattern != "eees" {
		t.Errorf("most common pattern is %q, expected eees", rows[0].Pattern)
	}
	if rows[0].Percent < 30 {
		t.Errorf("eees only %.1f%%, expected dominance", rows[0].Percent)
	}
	cov := suiteResults.patterns.TwoBitCoverage()
	if cov < 75 {
		t.Errorf("2-bit coverage %.1f%%, expected the large majority (>75%%)", cov)
	}
	t.Logf("2-bit coverage: %.1f%%; top pattern %s %.1f%%", cov, rows[0].Pattern, rows[0].Percent)
	for _, r := range rows {
		t.Logf("  %s  %5.1f%%  cum %5.1f%%  2bit=%v", r.Pattern, r.Percent, r.Cumulative, r.TwoBitOK)
	}
}

// §2.3 text: mean fetched bytes per instruction ≈ 3.17 (3.29 with the
// extension bit); most instructions compress to three bytes.
func TestFetchStatsShape(t *testing.T) {
	runSuite(t)
	f := suiteResults.fetch
	mean := f.MeanBytes()
	if mean < 3.0 || mean > 3.8 {
		t.Errorf("mean fetch bytes %.2f outside [3.0, 3.8]", mean)
	}
	if f.ThreeByte*2 < f.Insts {
		t.Errorf("only %d/%d instructions compress to 3 bytes", f.ThreeByte, f.Insts)
	}
	t.Logf("mean %.2f bytes (%.2f with ext bit); 3-byte share %.1f%%; formats R %.1f%% I %.1f%% J %.1f%%",
		mean, f.MeanBytesWithExt(),
		100*float64(f.ThreeByte)/float64(f.Insts),
		100*float64(f.RFormat)/float64(f.Insts),
		100*float64(f.IFormat)/float64(f.Insts),
		100*float64(f.JFormat)/float64(f.Insts))
}

// Per-benchmark sanity: wide-operand crc32 must save less RF/ALU activity
// than the byte-oriented audio kernels.
func TestWorkloadSpread(t *testing.T) {
	runSuite(t)
	crc := suiteResults.byteCounts["crc32"]
	adpcm := suiteResults.byteCounts["rawcaudio"]
	if crc.ALU.Reduction() >= adpcm.ALU.Reduction() {
		t.Errorf("crc32 ALU saving %.1f%% should be below rawcaudio %.1f%%",
			crc.ALU.Reduction(), adpcm.ALU.Reduction())
	}
	t.Logf("ALU savings: crc32 %.1f%%, rawcaudio %.1f%%", crc.ALU.Reduction(), adpcm.ALU.Reduction())
}

func TestStageBitsReduction(t *testing.T) {
	s := StageBits{Baseline: 100, Compressed: 60}
	if got := s.Reduction(); got != 40 {
		t.Fatalf("reduction: %v", got)
	}
	var zero StageBits
	if zero.Reduction() != 0 {
		t.Fatal("idle reduction should be 0")
	}
}
