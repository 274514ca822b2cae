package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/energy"
	"repro/internal/pipeline"
)

func TestAblationSchemeRenderer(t *testing.T) {
	r := load(t)
	tbl := r.AblationScheme()
	if tbl.Rows() != len(r.Bench)+1 {
		t.Fatalf("rows: %d", tbl.Rows())
	}
	// Both schemes must deliver real average RF-read savings; the 3-bit
	// scheme must not lose to the 2-bit one on register reads (addresses
	// with internal extension bytes are its raison d'être).
	var rf3, rf2 float64
	for _, b := range r.Bench {
		rf3 += b.ByteAct.RFRead.Reduction()
		rf2 += b.Scheme2Act.RFRead.Reduction()
	}
	n := float64(len(r.Bench))
	if rf3/n <= rf2/n {
		t.Errorf("3-bit RF read saving %.1f%% should beat 2-bit %.1f%%", rf3/n, rf2/n)
	}
	if rf2/n < 20 {
		t.Errorf("2-bit scheme saving %.1f%% implausibly low", rf2/n)
	}
}

func TestAblationPredictionRenderer(t *testing.T) {
	r := load(t)
	tbl := r.AblationPrediction()
	if tbl.Rows() != len(r.Bench)+1 {
		t.Fatalf("rows: %d", tbl.Rows())
	}
	// Prediction must help every design on average, and accuracy must be
	// recorded.
	for _, base := range []string{
		pipeline.NameBaseline32, pipeline.NameByteSerial, pipeline.NameParallelSkewedBypass,
	} {
		if r.MeanCPI(base+"+bp") >= r.MeanCPI(base) {
			t.Errorf("%s: prediction did not lower mean CPI", base)
		}
	}
	for _, b := range r.Bench {
		if b.PredAcc <= 0.5 || b.PredAcc > 1 {
			t.Errorf("%s: predictor accuracy %.2f out of range", b.Name, b.PredAcc)
		}
	}
}

func TestAblationPartitionRenderer(t *testing.T) {
	r := load(t)
	tbl := r.AblationPartition()
	if tbl.Rows() < 6 {
		t.Fatalf("rows: %d", tbl.Rows())
	}
	rows := r.Partitions.Rows()
	// Ordered best-first.
	for i := 1; i < len(rows); i++ {
		if rows[i].MeanBits < rows[i-1].MeanBits {
			t.Fatal("partition rows not sorted by mean bits")
		}
	}
	// The paper's byte scheme must rank near the top (within 1 bit/value
	// of the best candidate) and far above the halfword scheme.
	var byteMean, halfMean, best float64
	best = rows[0].MeanBits
	for _, row := range rows {
		if strings.Contains(row.Name, "paper byte") {
			byteMean = row.MeanBits
		}
		if strings.Contains(row.Name, "paper half") {
			halfMean = row.MeanBits
		}
	}
	if byteMean == 0 || halfMean == 0 {
		t.Fatal("paper schemes missing from candidates")
	}
	if byteMean-best > 1 {
		t.Errorf("byte scheme %.2f bits, best %.2f: paper's compromise claim violated", byteMean, best)
	}
	if halfMean <= byteMean {
		t.Errorf("halfword (%.2f) should store more than byte (%.2f)", halfMean, byteMean)
	}
	if r.Partitions.Values() == 0 {
		t.Fatal("no operand values tallied")
	}
}

func TestCacheSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("cache sweep runs its own traces")
	}
	tbl, err := CacheSweep([]int{4 << 10, 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 2 {
		t.Fatalf("rows: %d", tbl.Rows())
	}
	// The 8 KB row is the paper's geometry set through SetHierarchy, so its
	// models simulate their own caches. It must agree with the suite
	// evaluation, whose kernels read the trace's shared miss stream.
	r := load(t)
	row := tbl.JSON().Rows[1]
	for i, model := range []string{pipeline.NameBaseline32, pipeline.NameByteSerial} {
		if want := fmt.Sprintf("%.3f", r.MeanCPI(model)); row[i+1] != want {
			t.Errorf("8 KB %s mean CPI %s, suite evaluation %s", model, row[i+1], want)
		}
	}
}

func TestEnergySummaryRenderer(t *testing.T) {
	r := load(t)
	tbl := r.EnergySummary()
	if tbl.Rows() != len(r.Bench) {
		t.Fatalf("rows: %d", tbl.Rows())
	}
	// Every benchmark must show a positive machine-level energy saving.
	for _, b := range r.Bench {
		est := energy.FromCounts(b.ByteAct, energy.DefaultWeights())
		if est.Saving() <= 20 {
			t.Errorf("%s: energy saving %.1f%% implausibly low", b.Name, est.Saving())
		}
	}
}

func TestJSONExport(t *testing.T) {
	r := load(t)
	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]interface{}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	for _, key := range []string{"benchmarks", "significantBytePatterns", "pcIncrementModel", "functProfile", "instructionCompression", "partitionAblation"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("JSON missing %q", key)
		}
	}
	benches := decoded["benchmarks"].([]interface{})
	if len(benches) != len(r.Bench) {
		t.Fatalf("benchmarks: %d", len(benches))
	}
}

func TestBaselineComparisonRenderer(t *testing.T) {
	r := load(t)
	tbl := r.BaselineComparison()
	if tbl.Rows() != len(r.Bench)+1 {
		t.Fatalf("rows: %d", tbl.Rows())
	}
	// Byte-granularity gating must beat the 16-bit BM detector on the
	// suite average (finer granularity sees strictly more opportunities).
	var bm, sig float64
	for _, b := range r.Bench {
		bm += r.BM[b.Name].ALUSaving()
		sig += b.ByteAct.ALU.Reduction()
	}
	n := float64(len(r.Bench))
	if sig/n <= bm/n {
		t.Errorf("significance ALU saving %.1f%% should beat BM-16 %.1f%%", sig/n, bm/n)
	}
	// And BM itself must find real savings (sanity of the baseline).
	if bm/n < 15 {
		t.Errorf("BM saving %.1f%% implausibly low", bm/n)
	}
}
