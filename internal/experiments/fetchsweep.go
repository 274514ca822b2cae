package experiments

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/bench"
	"repro/internal/pipeline"
	"repro/internal/stats"
)

// FetchSweepResult is one (bandwidth, benchmark) cell of the fetch sweep:
// the CPI of the compressed, raw, and dual-issue byte-fetch frontends at
// that byte budget, plus the dual frontend's sustained into-decode rate.
type FetchSweepResult struct {
	Bytes     int
	Bench     string
	CPIComp   float64 // bytefetch<B>: recoded 3/4-byte stream
	CPIRaw    float64 // bytefetch<B>-raw: fixed 4-byte stream
	CPIDual   float64 // dualc<B>: dual-issue-when-compressed
	DualIPC   float64 // dualc<B> instructions per decode-accepting cycle
	DualPairs uint64  // dualc<B> pairs actually issued
}

// FetchSweep sweeps fetch bandwidth (bytes per cycle) over the whole suite
// through the three byte-fetch frontends — the CPI-vs-fetch-bytes axis of
// the compressed-fetch study. Each benchmark is interpreted exactly once,
// the recoder is profiled from the captures as RunCaptures does, and every
// capture is batch-replayed per width.
func FetchSweep(widths []int) ([]FetchSweepResult, error) {
	ctx := context.Background()
	caps, err := CaptureSuite(ctx, bench.All(), runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	rc, _, err := capturesRecoder(ctx, caps)
	if err != nil {
		return nil, err
	}
	var out []FetchSweepResult
	for _, cp := range caps {
		b := cp.Bench()
		for _, w := range widths {
			comp := pipeline.NewByteFetch(w, false, false)
			raw := pipeline.NewByteFetch(w, false, true)
			dual := pipeline.NewByteFetch(w, true, false)
			if err := cp.ReplayBlocks(ctx, rc, comp, raw, dual); err != nil {
				return nil, err
			}
			rd := dual.Result()
			fu := dual.FetchUnit()
			out = append(out, FetchSweepResult{
				Bytes:     w,
				Bench:     b.Name,
				CPIComp:   comp.Result().CPI(),
				CPIRaw:    raw.Result().CPI(),
				CPIDual:   rd.CPI(),
				DualIPC:   fu.IntoDecodeIPC(rd.Insts),
				DualPairs: fu.DualIssued,
			})
		}
	}
	return out, nil
}

// FetchSweepTable renders the sweep as mean CPI per width, with the best
// per-benchmark dual-issue into-decode rate as the headline column.
func FetchSweepTable(results []FetchSweepResult) *stats.Table {
	t := stats.NewTable(
		"Compressed fetch: CPI vs fetch bandwidth (bytes/cycle, suite mean)",
		"B/cycle", "raw (4B insts)", "compressed", "dual-issue", "best dual IPC (bench)")
	type agg struct {
		n               int
		comp, raw, dual float64
		bestIPC         float64
		bestBench       string
	}
	byWidth := make(map[int]*agg)
	var widths []int
	for _, r := range results {
		a, ok := byWidth[r.Bytes]
		if !ok {
			a = &agg{}
			byWidth[r.Bytes] = a
			widths = append(widths, r.Bytes)
		}
		a.n++
		a.comp += r.CPIComp
		a.raw += r.CPIRaw
		a.dual += r.CPIDual
		if r.DualIPC > a.bestIPC {
			a.bestIPC, a.bestBench = r.DualIPC, r.Bench
		}
	}
	for _, w := range widths {
		a := byWidth[w]
		n := float64(a.n)
		t.AddStringRow(
			fmt.Sprintf("%d", w),
			fmt.Sprintf("%.3f", a.raw/n),
			fmt.Sprintf("%.3f", a.comp/n),
			fmt.Sprintf("%.3f", a.dual/n),
			fmt.Sprintf("%.3f (%s)", a.bestIPC, a.bestBench))
	}
	return t
}

// DefaultFetchSweepWidths are the byte budgets the sweep covers; 4 B/cycle
// is the interesting point — one word, where recoding is what buys slack.
func DefaultFetchSweepWidths() []int {
	return []int{2, 3, 4, 6, 8}
}

// FigFetch renders the per-benchmark CPI comparison of the byte-fetch
// family against the word-fetch baseline from a full evaluation.
func (r *Results) FigFetch() *stats.Table {
	return r.cpiFigure("Compressed-fetch frontend: per-benchmark CPI (4 B/cycle fetch)",
		pipeline.NameBaseline32, pipeline.NameByteFetch4Raw, pipeline.NameByteFetch2,
		pipeline.NameByteFetch3, pipeline.NameByteFetch4, pipeline.NameDualCompress4)
}

// FrontendSummary renders the suite-level dual-issue opportunity profile.
func (r *Results) FrontendSummary() string {
	f := r.Frontend
	return fmt.Sprintf(
		"Compressed-fetch frontend: %.1f%% of instructions 3-byte; "+
			"dual-issue pairs cover %.1f%% of the stream; mean fetch run %.1f insts",
		f.CompressedShare(), f.PairShare(), f.MeanRunLength())
}
