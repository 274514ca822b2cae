package experiments

import (
	"context"
	"fmt"

	"repro/internal/bench"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/trace"
)

// CacheSweep evaluates the robustness of the paper's conclusions to the L1
// geometry (§2.3 notes the fill overhead argument "assumes a reasonable
// instruction cache miss rate"): baseline and byte-serial mean CPI at
// several split-L1 sizes. Geometry is a model parameter, not part of the
// cached one-pass evaluation, so the sweep runs its own traces — but each
// benchmark is interpreted exactly once and replayed per geometry (one
// capture live at a time, so the sweep's footprint stays one trace).
func CacheSweep(sizes []int) (*stats.Table, error) {
	ctx := context.Background()
	suite := bench.All()
	rc, _, err := trace.SuiteRecoder(suite)
	if err != nil {
		return nil, err
	}
	baseSums := make([]float64, len(sizes))
	serialSums := make([]float64, len(sizes))
	for _, b := range suite {
		cp, err := trace.CaptureRun(ctx, b)
		if err != nil {
			return nil, err
		}
		for i, size := range sizes {
			cfg := mem.DefaultHierarchyConfig()
			cfg.L1I.Size = size
			cfg.L1D.Size = size
			base := pipeline.NewBaseline32().SetHierarchy(cfg)
			serial := pipeline.NewByteSerial().SetHierarchy(cfg)
			// Replay with no memory image: timing models never read
			// program memory, so the stores need not be applied anywhere.
			// Each model simulates its own geometry over every block.
			if err := cp.ReplayBlocks(ctx, rc, base, serial); err != nil {
				return nil, err
			}
			baseSums[i] += base.Result().CPI()
			serialSums[i] += serial.Result().CPI()
		}
	}
	t := stats.NewTable(
		"Sensitivity: L1 size (split I/D) vs mean CPI",
		"L1 size", "baseline32", "byteserial", "serial overhead")
	n := float64(len(suite))
	for i, size := range sizes {
		t.AddStringRow(
			fmt.Sprintf("%d KB", size>>10),
			fmt.Sprintf("%.3f", baseSums[i]/n),
			fmt.Sprintf("%.3f", serialSums[i]/n),
			fmt.Sprintf("%+.1f%%", 100*(serialSums[i]/baseSums[i]-1)))
	}
	return t, nil
}

// DefaultCacheSweepSizes are the L1 sizes the sensitivity study covers
// (the paper's configuration is 8 KB).
func DefaultCacheSweepSizes() []int {
	return []int{2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10}
}
