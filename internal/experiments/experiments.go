// Package experiments orchestrates the paper's full evaluation: it runs the
// workload suite once through every pipeline model and activity collector
// and renders each table and figure of the paper (the per-experiment index
// lives in DESIGN.md §4).
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/activity"
	"repro/internal/bench"
	"repro/internal/bmgating"
	"repro/internal/icomp"
	"repro/internal/isa"
	"repro/internal/pcincr"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/trace"
)

// BenchResult aggregates everything measured over one benchmark.
type BenchResult struct {
	Name       string
	Insts      uint64
	CPI        map[string]float64 // per pipeline model (incl. +bp variants)
	Stalls     map[string]map[pipeline.StallKind]uint64
	ByteAct    activity.Counts
	HalfAct    activity.Counts
	Scheme2Act activity.Counts // 2-bit extension scheme ablation (§2.1)
	PredAcc    float64         // bimodal predictor accuracy (extension)
	// FetchUnits holds the byte-budgeted frontend accounting of every
	// byte-fetch model (keyed by model name; word-fetch models have none).
	FetchUnits map[string]pipeline.FetchUnitStats
}

// Results carries the complete evaluation.
type Results struct {
	Recoder    *icomp.Recoder
	Functs     map[isa.Funct]uint64
	Bench      []BenchResult
	Patterns   *activity.PatternStats
	Fetch      *activity.FetchStats
	Partitions *activity.PartitionStats
	Width64    *activity.Width64Stats
	Frontend   *activity.FrontendStats
	// BM holds per-benchmark Brooks-Martonosi baseline collectors (keyed
	// by benchmark name): the paper's reference [1], ALU-only gating.
	BM map[string]*bmgating.Collector
}

// memo caches the first successful evaluation of a process. Unlike a bare
// sync.Once it does NOT latch failures: a cancelled or transient first call
// leaves the memo empty so the next caller retries instead of inheriting the
// stale error forever. Concurrent callers serialize on the mutex; whoever
// holds it during a successful run fills the cache for everyone after.
type memo struct {
	mu  sync.Mutex
	res *Results
	ok  bool
}

// get returns the cached result, running fn (and caching only on success)
// when none exists yet.
func (m *memo) get(fn func() (*Results, error)) (*Results, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ok {
		return m.res, nil
	}
	res, err := fn()
	if err != nil {
		return nil, err
	}
	m.res, m.ok = res, true
	return res, nil
}

var runMemo memo

// Run executes the complete evaluation once per process and caches the
// successful result, fanning benchmarks across GOMAXPROCS workers. Failed
// attempts are retried by later callers rather than cached.
func Run() (*Results, error) {
	return runMemo.get(func() (*Results, error) {
		return RunParallel(context.Background(), runtime.GOMAXPROCS(0))
	})
}

// SuiteCollectors bundles the suite-level trace consumers a full evaluation
// accumulates across every benchmark (pattern, fetch, partition, and
// 64-bit-projection statistics plus the Brooks-Martonosi baselines).
// Standalone per-benchmark runs (the serving layer) pass nil and skip them.
type SuiteCollectors struct {
	Patterns   *activity.PatternStats
	Fetch      *activity.FetchStats
	Partitions *activity.PartitionStats
	Width64    *activity.Width64Stats
	Frontend   *activity.FrontendStats
	BM         map[string]*bmgating.Collector
}

// NewSuiteCollectors builds an empty set of suite-level collectors.
func NewSuiteCollectors() *SuiteCollectors {
	return &SuiteCollectors{
		Patterns:   activity.NewPatternStats(),
		Fetch:      &activity.FetchStats{},
		Partitions: activity.NewPartitionStats(),
		Width64:    activity.NewWidth64Stats(),
		Frontend:   activity.NewFrontendStats(),
		BM:         make(map[string]*bmgating.Collector),
	}
}

// Merge folds other's tallies into sc. Every underlying collector merge is a
// pure count sum, so merging is order-independent and any per-benchmark
// split recombines to exactly the tallies of one shared collector set —
// the invariant the parallel evaluation relies on. Row/table ordering is
// derived from the merged counts at render time, so callers that want
// deterministic output only need deterministic totals, which any merge
// order provides.
func (sc *SuiteCollectors) Merge(other *SuiteCollectors) {
	sc.Patterns.Merge(other.Patterns)
	sc.Fetch.Merge(other.Fetch)
	sc.Partitions.Merge(other.Partitions)
	sc.Width64.Merge(other.Width64)
	sc.Frontend.Merge(other.Frontend)
	for name, col := range other.BM {
		if existing, ok := sc.BM[name]; ok {
			existing.Merge(col)
		} else {
			sc.BM[name] = col
		}
	}
}

// RunBenchReplay executes one benchmark's trace, from either source (a
// resident *trace.Capture or a streaming *trace.MappedCapture), through
// every pipeline model (including the branch-prediction ablation variants)
// and every activity collector, honoring ctx cancellation, and returns its
// BenchResult. When suite is
// non-nil the suite-level collectors accumulate this benchmark's trace too.
// The trace is emitted once, over a fresh memory image the collectors read
// cache-line contents from; one capture serves any number of calls,
// concurrently if desired, and both sources give the same result by
// construction and by test. This is the per-benchmark unit of work the
// full evaluation (sequential or parallel) fans out over and the serving
// layer (internal/simsvc) reuses instead of recomputing the whole suite.
func RunBenchReplay(ctx context.Context, rep trace.Replayer, rc *icomp.Recoder, suite *SuiteCollectors) (BenchResult, error) {
	name := rep.Bench().Name
	memory, err := rep.NewMemory()
	if err != nil {
		return BenchResult{}, err
	}
	models := pipeline.NewAll()
	// Branch-prediction ablation (the paper's §3 future-work item) on
	// three representative designs.
	for _, n := range []string{
		pipeline.NameBaseline32, pipeline.NameByteSerial, pipeline.NameParallelSkewedBypass,
	} {
		models = append(models, pipeline.NewPredicted(n))
	}
	byteCol := activity.NewCollector(1, rc, memory)
	halfCol := activity.NewCollector(2, rc, memory)
	twoBitCol := activity.NewCollectorScheme(1, activity.Scheme2, rc, memory)
	consumers := []trace.Consumer{byteCol, halfCol, twoBitCol}
	var bmCol *bmgating.Collector
	if suite != nil {
		bmCol = bmgating.NewCollector()
		consumers = append(consumers, suite.Patterns, suite.Fetch, suite.Partitions, suite.Width64, suite.Frontend, bmCol)
	}
	for _, m := range models {
		consumers = append(consumers, m)
	}
	if err := rep.ReplayBlocksOn(ctx, memory, rc, consumers...); err != nil {
		return BenchResult{}, err
	}
	// Register the Brooks-Martonosi collector only now: a failed run must
	// not leave a partially-filled collector in the results map.
	if suite != nil {
		suite.BM[name] = bmCol
		// Pairing adjacency must not span benchmarks: a shared sequential
		// collector set has to tally exactly what per-benchmark sets merged
		// afterwards would.
		suite.Frontend.EndRun()
	}
	br := BenchResult{
		Name:       name,
		Insts:      models[0].Result().Insts,
		CPI:        make(map[string]float64),
		Stalls:     make(map[string]map[pipeline.StallKind]uint64),
		ByteAct:    byteCol.Counts(),
		HalfAct:    halfCol.Counts(),
		Scheme2Act: twoBitCol.Counts(),
		FetchUnits: make(map[string]pipeline.FetchUnitStats),
	}
	for _, m := range models {
		r := m.Result()
		br.CPI[m.Name()] = r.CPI()
		br.Stalls[m.Name()] = r.Stalls
		if m.PredictorAccuracy() > 0 && m.Name() == pipeline.NameBaseline32+"+bp" {
			br.PredAcc = m.PredictorAccuracy()
		}
		if fu := m.FetchUnit(); fu != nil {
			br.FetchUnits[m.Name()] = *fu
		}
	}
	return br, nil
}

// RunParallel executes the full evaluation with benchmark-level parallelism:
// every benchmark runs through RunBenchReplay with its own SuiteCollectors on a
// bounded worker group (first error cancels the rest), and the per-run
// collectors are merged in suite order. Because collector merging is pure
// count addition, the Results — including every rendered table and figure —
// are bit-identical to the sequential path.
func RunParallel(ctx context.Context, workers int) (*Results, error) {
	return RunSuite(ctx, bench.All(), workers)
}

// RunSuite executes the evaluation over the given benchmarks with the given
// worker count, on the capture-once / replay-many path: each benchmark is
// interpreted exactly once into a trace.Capture (CaptureSuite) and the
// captures are evaluated by RunCaptures. Peak transient memory is the
// captured suite, ~24 B per dynamic instruction (~90 MB for the full
// 16-benchmark suite).
func RunSuite(ctx context.Context, suite []bench.Benchmark, workers int) (*Results, error) {
	caps, err := CaptureSuite(ctx, suite, workers)
	if err != nil {
		return nil, err
	}
	return RunCaptures(ctx, caps, workers)
}

// RunCaptures evaluates captured benchmarks, in the order given: the
// instruction recoder is profiled from the captures for free, and every
// model/collector pass is a replay. Callers that run further studies over
// the same suite (cmd/sigtables' ablation and cache sweep) keep the
// captures and Results.Recoder instead of interpreting the suite again.
// workers <= 1 selects the sequential path (one shared collector set, no
// goroutines); workers > 1 fans benchmarks across that many goroutines
// with per-run collectors merged afterwards.
func RunCaptures(ctx context.Context, caps []*trace.Capture, workers int) (*Results, error) {
	rc, functs, err := capturesRecoder(ctx, caps)
	if err != nil {
		return nil, err
	}
	collectors := NewSuiteCollectors()
	res := &Results{
		Recoder:    rc,
		Functs:     functs,
		Patterns:   collectors.Patterns,
		Fetch:      collectors.Fetch,
		Partitions: collectors.Partitions,
		Width64:    collectors.Width64,
		Frontend:   collectors.Frontend,
		BM:         collectors.BM,
	}
	if workers <= 1 {
		for _, cp := range caps {
			br, err := RunBenchReplay(ctx, cp, rc, collectors)
			if err != nil {
				return nil, err
			}
			res.Bench = append(res.Bench, br)
		}
		return res, nil
	}

	// Per-run collectors merge in suite order afterwards (merging is
	// order-independent for the counts; Bench rows must follow suite order
	// for the tables).
	type benchOut struct {
		br   BenchResult
		cols *SuiteCollectors
	}
	outs := make([]benchOut, len(caps))
	err = forEachBench(ctx, len(caps), workers, func(ctx context.Context, i int) error {
		cols := NewSuiteCollectors()
		br, err := RunBenchReplay(ctx, caps[i], rc, cols)
		if err != nil {
			return err
		}
		outs[i] = benchOut{br: br, cols: cols}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range outs {
		res.Bench = append(res.Bench, outs[i].br)
		collectors.Merge(outs[i].cols)
	}
	return res, nil
}

// CapturesRecoder is the one counts-to-recoder step: it sums n captures'
// dynamic function-code counts, fetching capture i's through counts(ctx, i)
// on up to workers goroutines (first error cancels the rest), and builds
// the profile-driven instruction recoder from the total. That is the
// recoder trace.SuiteRecoder builds by stepping the same benchmarks again.
func CapturesRecoder(ctx context.Context, n, workers int,
	counts func(ctx context.Context, i int) (map[isa.Funct]uint64, error)) (*icomp.Recoder, map[isa.Funct]uint64, error) {
	per := make([]map[isa.Funct]uint64, n)
	err := forEachBench(ctx, n, workers, func(ctx context.Context, i int) error {
		var err error
		per[i], err = counts(ctx, i)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	functs := make(map[isa.Funct]uint64)
	for _, c := range per {
		for fn, k := range c {
			functs[fn] += k
		}
	}
	rc, err := icomp.NewRecoder(icomp.TopFuncts(functs, 8))
	if err != nil {
		return nil, nil, err
	}
	return rc, functs, nil
}

// capturesRecoder is CapturesRecoder over resident captures.
func capturesRecoder(ctx context.Context, caps []*trace.Capture) (*icomp.Recoder, map[isa.Funct]uint64, error) {
	return CapturesRecoder(ctx, len(caps), 1, func(_ context.Context, i int) (map[isa.Funct]uint64, error) {
		return caps[i].FunctCounts()
	})
}

// CaptureSuite records each benchmark's trace, fanning the interpreter runs
// across up to workers goroutines (first error cancels the rest).
func CaptureSuite(ctx context.Context, suite []bench.Benchmark, workers int) ([]*trace.Capture, error) {
	caps := make([]*trace.Capture, len(suite))
	err := forEachBench(ctx, len(suite), workers, func(ctx context.Context, i int) error {
		cp, err := trace.CaptureRun(ctx, suite[i])
		if err != nil {
			return err
		}
		caps[i] = cp
		return nil
	})
	if err != nil {
		return nil, err
	}
	return caps, nil
}

// forEachBench runs fn(i) for every index across up to workers goroutines;
// the first error cancels the remaining work and is returned. workers <= 1
// runs the indices in order on the calling goroutine.
func forEachBench(ctx context.Context, n, workers int, fn func(context.Context, int) error) error {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sem := make(chan struct{}, workers)
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				return
			}
			if err := fn(ctx, i); err != nil {
				// First error wins and cancels the remaining benchmarks.
				errOnce.Do(func() {
					firstErr = err
					cancel()
				})
			}
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// MeanCPI returns the arithmetic-mean CPI of one model over the suite.
func (r *Results) MeanCPI(model string) float64 {
	var xs []float64
	for _, b := range r.Bench {
		xs = append(xs, b.CPI[model])
	}
	return stats.Mean(xs)
}

// CPIOverhead returns the mean CPI of model relative to the baseline,
// as a +percentage.
func (r *Results) CPIOverhead(model string) float64 {
	base := r.MeanCPI(pipeline.NameBaseline32)
	if base == 0 {
		return 0
	}
	return 100 * (r.MeanCPI(model)/base - 1)
}

// Table1 renders the significant-byte pattern frequencies.
func (r *Results) Table1() *stats.Table {
	t := stats.NewTable(
		"Table 1: Frequency of significant byte patterns (register operand values)",
		"pattern", "% values", "cumulative %", "2-bit encodable")
	for _, row := range r.Patterns.Rows() {
		t.AddStringRow(row.Pattern,
			fmt.Sprintf("%.1f", row.Percent),
			fmt.Sprintf("%.1f", row.Cumulative),
			fmt.Sprintf("%v", row.TwoBitOK))
	}
	return t
}

// Table2 renders the analytic PC-increment model.
func (r *Results) Table2() *stats.Table {
	t := stats.NewTable(
		"Table 2: Activity and latency estimates for PC updating (block-serial increment)",
		"block size (bits)", "activity (bits)", "latency (cycles)")
	for _, row := range pcincr.Table2() {
		t.AddStringRow(
			fmt.Sprintf("%d", row.BlockBits),
			fmt.Sprintf("%.4f", row.Activity),
			fmt.Sprintf("%.4f", row.Latency))
	}
	return t
}

// Table3 renders the dynamic function-code frequencies and the recoded
// top-8 set.
func (r *Results) Table3() *stats.Table {
	t := stats.NewTable(
		"Table 3: Dynamic frequency of R-format function codes",
		"funct", "%", "cumulative %", "recoded compact")
	var total uint64
	for _, n := range r.Functs {
		total += n
	}
	cum := 0.0
	for _, fn := range icomp.TopFuncts(r.Functs, 64) {
		pct := 100 * float64(r.Functs[fn]) / float64(total)
		cum += pct
		t.AddStringRow(isa.FunctName(fn),
			fmt.Sprintf("%.1f", pct),
			fmt.Sprintf("%.1f", cum),
			fmt.Sprintf("%v", r.Recoder.IsCompact(fn)))
	}
	return t
}

// activityTable renders Table 5 (byte) or Table 6 (halfword).
func (r *Results) activityTable(title string, sel func(BenchResult) activity.Counts) *stats.Table {
	headers := append([]string{"benchmark"}, activity.Stages()...)
	t := stats.NewTable(title, headers...)
	sums := make([]float64, len(activity.Stages()))
	for _, b := range r.Bench {
		row := sel(b).Row()
		cells := []string{b.Name}
		for i, v := range row {
			cells = append(cells, fmt.Sprintf("%.1f", v))
			sums[i] += v
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

// Table5 renders per-benchmark byte-granularity activity reductions.
func (r *Results) Table5() *stats.Table {
	return r.activityTable(
		"Table 5: Activity reduction (%) for datapath operations (8 bit granularity)",
		func(b BenchResult) activity.Counts { return b.ByteAct })
}

// Table6 renders halfword-granularity activity reductions.
func (r *Results) Table6() *stats.Table {
	return r.activityTable(
		"Table 6: Activity reduction (%) for datapath operations (16 bit granularity)",
		func(b BenchResult) activity.Counts { return b.HalfAct })
}

// cpiFigure renders a per-benchmark CPI comparison for the given models.
func (r *Results) cpiFigure(title string, models ...string) *stats.Table {
	headers := []string{"benchmark"}
	headers = append(headers, models...)
	t := stats.NewTable(title, headers...)
	for _, b := range r.Bench {
		cells := []string{b.Name}
		for _, m := range models {
			cells = append(cells, fmt.Sprintf("%.3f", b.CPI[m]))
		}
		t.AddStringRow(cells...)
	}
	avg := []string{"AVG"}
	for _, m := range models {
		avg = append(avg, fmt.Sprintf("%.3f", r.MeanCPI(m)))
	}
	t.AddStringRow(avg...)
	over := []string{"vs baseline"}
	for _, m := range models {
		over = append(over, fmt.Sprintf("%+.1f%%", r.CPIOverhead(m)))
	}
	t.AddStringRow(over...)
	return t
}

// Fig4 renders the byte-serial (and halfword-serial) CPI comparison.
func (r *Results) Fig4() *stats.Table {
	return r.cpiFigure("Figure 4: Performance of the byte-serial implementation (CPI)",
		pipeline.NameBaseline32, pipeline.NameByteSerial, pipeline.NameHalfwordSerial)
}

// Fig6 renders the byte semi-parallel CPI comparison.
func (r *Results) Fig6() *stats.Table {
	return r.cpiFigure("Figure 6: Performance of the byte semi-parallel implementation (CPI)",
		pipeline.NameBaseline32, pipeline.NameSemiParallel, pipeline.NameByteSerial)
}

// Fig8 renders the byte-parallel skewed CPI comparison.
func (r *Results) Fig8() *stats.Table {
	return r.cpiFigure("Figure 8: Performance of the byte-parallel skewed microarchitecture (CPI)",
		pipeline.NameBaseline32, pipeline.NameParallelSkewed)
}

// Fig10 renders the compressed and skewed+bypass CPI comparison.
func (r *Results) Fig10() *stats.Table {
	return r.cpiFigure("Figure 10: Performance of the byte-parallel compressed and skewed+bypass designs (CPI)",
		pipeline.NameBaseline32, pipeline.NameParallelSkewedBypass, pipeline.NameParallelCompressed)
}

// Bottleneck renders the §5 stall study of the byte-serial design.
func (r *Results) Bottleneck() *stats.Table {
	t := stats.NewTable(
		"Section 5 bottleneck study: byte-serial stall breakdown (cycles, % of stalls)",
		"benchmark", "struct-ex %", "struct-rf %", "struct-mem %", "struct-wb %", "struct-if %", "branch %", "data %", "cache %")
	kinds := []pipeline.StallKind{
		pipeline.StallStructEX, pipeline.StallStructRF, pipeline.StallStructMEM,
		pipeline.StallStructWB, pipeline.StallStructIF,
		pipeline.StallBranch, pipeline.StallData,
	}
	var sums [8]float64
	for _, b := range r.Bench {
		st := b.Stalls[pipeline.NameByteSerial]
		var total uint64
		for _, v := range st {
			total += v
		}
		cells := []string{b.Name}
		for i, k := range kinds {
			pct := 0.0
			if total > 0 {
				pct = 100 * float64(st[k]) / float64(total)
			}
			sums[i] += pct
			cells = append(cells, fmt.Sprintf("%.1f", pct))
		}
		cache := 0.0
		if total > 0 {
			cache = 100 * float64(st[pipeline.StallICache]+st[pipeline.StallDCache]) / float64(total)
		}
		sums[7] += cache
		cells = append(cells, fmt.Sprintf("%.1f", cache))
		t.AddStringRow(cells...)
	}
	avg := []string{"AVG"}
	for _, s := range sums {
		avg = append(avg, fmt.Sprintf("%.1f", s/float64(len(r.Bench))))
	}
	t.AddStringRow(avg...)
	return t
}

// FetchSummary renders the §2.3 text numbers.
func (r *Results) FetchSummary() string {
	f := r.Fetch
	return fmt.Sprintf(
		"Instruction compression (§2.3): mean %.2f bytes/inst (%.2f incl. extension bit); "+
			"3-byte share %.1f%%; formats R %.1f%% / I %.1f%% / J %.1f%%; "+
			"immediates compressed to 8 bits: %.1f%% of I-format\n"+
			"2-bit scheme pattern coverage (§2.1): %.1f%% of operand values",
		f.MeanBytes(), f.MeanBytesWithExt(),
		100*float64(f.ThreeByte)/float64(f.Insts),
		100*float64(f.RFormat)/float64(f.Insts),
		100*float64(f.IFormat)/float64(f.Insts),
		100*float64(f.JFormat)/float64(f.Insts),
		100*float64(f.ImmFits8)/float64(f.ImmUsers),
		r.Patterns.TwoBitCoverage()) + fmt.Sprintf(
		"\n64-bit ISA projection (§2.9): operand storage saving %.1f%% at 32 bits vs %.1f%% at 64 bits",
		r.Width64.Saving32(), r.Width64.Saving64())
}
