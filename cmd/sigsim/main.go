// Command sigsim runs one benchmark of the suite on one (or every)
// pipeline model and reports CPI, stall breakdown and per-stage activity
// reductions.
//
// Usage:
//
//	sigsim -list                      # list benchmarks and models
//	sigsim -bench rawcaudio           # all models on one benchmark
//	sigsim -bench crc32 -model byteserial
//	sigsim -bench crc32 -json         # machine-readable (sigserve schema)
//	sigsim -bench all -parallel 4     # full-suite evaluation, 4 workers
//	sigsim -bench crc32 -capture-dir ./caps   # persist/reuse SIGCAP02 captures (mapped + streamed)
//	sigsim -bench crc32 -capture-dir ./caps -mmap=false   # eager decode instead of streaming
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"

	"repro/internal/activity"
	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	benchName := flag.String("bench", "", "benchmark to run, or \"all\" for the full-suite evaluation (see -list)")
	modelName := flag.String("model", "", "pipeline model (default: all)")
	pipeDiagram := flag.Int("pipe", 0, "render a pipeline diagram of the first N instructions (requires -model)")
	jsonOut := flag.Bool("json", false, "emit machine-readable results (the schema shared with sigserve)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "benchmark-level worker count for -bench all (1 = sequential)")
	captureDir := flag.String("capture-dir", "",
		"capture directory (SIGCAP02 files): replay a single -bench from its persisted capture, interpreting and persisting it on first use")
	useMmap := flag.Bool("mmap", true,
		"with -capture-dir: map SIGCAP02 captures read-only and stream frames instead of decoding the whole trace up front (false = always eager decode)")
	fetchSweep := flag.Bool("fetchsweep", false,
		"sweep fetch bandwidth (bytes/cycle) over the suite through the byte-fetch frontends and print the CPI table")
	list := flag.Bool("list", false, "list benchmarks and models")
	flag.Parse()

	if *fetchSweep {
		results, err := experiments.FetchSweep(experiments.DefaultFetchSweepWidths())
		if err != nil {
			fmt.Fprintf(os.Stderr, "sigsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(experiments.FetchSweepTable(results).String())
		return
	}

	if *list {
		fmt.Println("benchmarks:")
		for _, b := range bench.All() {
			fmt.Printf("  %-10s %s\n", b.Name, b.Description)
		}
		fmt.Println("models:")
		for _, m := range pipeline.AllNames() {
			fmt.Printf("  %s\n", m)
		}
		return
	}

	if *benchName == "all" {
		runSuite(*parallel, *jsonOut)
		return
	}

	b, ok := bench.ByName(*benchName)
	if !ok {
		fmt.Fprintf(os.Stderr, "sigsim: unknown benchmark %q (use -list)\n", *benchName)
		os.Exit(2)
	}

	var models []*pipeline.Model
	if *modelName != "" {
		// Validate by constructing the single instance once and reuse it
		// for the run.
		m := pipeline.New(*modelName)
		if m == nil {
			fmt.Fprintf(os.Stderr, "sigsim: unknown model %q (use -list)\n", *modelName)
			os.Exit(2)
		}
		models = []*pipeline.Model{m}
	} else {
		models = pipeline.NewAll()
	}

	rc, _, err := trace.SuiteRecoder(bench.All())
	if err != nil {
		fmt.Fprintf(os.Stderr, "sigsim: %v\n", err)
		os.Exit(1)
	}

	// With -capture-dir the job replays a persisted capture (interpreting
	// and persisting it on first use); otherwise it replays a fresh one.
	// The streaming (mapped SIGCAP02) and eager replay tiers are
	// bit-identical.
	var src trace.Replayer
	if *captureDir != "" {
		src, err = loadOrCapture(*captureDir, b, *useMmap)
	} else {
		src, err = trace.CaptureRun(context.Background(), b)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sigsim: %v\n", err)
		os.Exit(1)
	}
	// The collectors read program memory; give them a fresh image the
	// trace's stores are applied to.
	runMem, err := src.NewMemory()
	if err != nil {
		fmt.Fprintf(os.Stderr, "sigsim: %v\n", err)
		os.Exit(1)
	}
	consumers := make([]trace.Consumer, 0, len(models)+2)
	var timeline *pipeline.Timeline
	for _, m := range models {
		if *pipeDiagram > 0 && len(models) == 1 {
			timeline = pipeline.NewTimeline(m, *pipeDiagram)
		}
		consumers = append(consumers, m)
	}
	if *pipeDiagram > 0 && timeline == nil {
		fmt.Fprintln(os.Stderr, "sigsim: -pipe requires a single -model")
		os.Exit(2)
	}
	byteCol := activity.NewCollector(1, rc, runMem)
	consumers = append(consumers, byteCol)
	var halfCol *activity.Collector
	if *jsonOut {
		// The shared schema reports both granularities.
		halfCol = activity.NewCollector(2, rc, runMem)
		consumers = append(consumers, halfCol)
	}

	if err := src.ReplayBlocksOn(context.Background(), runMem, rc, consumers...); err != nil {
		fmt.Fprintf(os.Stderr, "sigsim: %v\n", err)
		os.Exit(1)
	}
	retired := byteCol.Counts().Insts

	if *jsonOut {
		br := experiments.BenchResult{
			Name:    b.Name,
			Insts:   retired,
			CPI:     make(map[string]float64),
			ByteAct: byteCol.Counts(),
			HalfAct: halfCol.Counts(),
		}
		for _, m := range models {
			br.CPI[m.Name()] = m.Result().CPI()
		}
		out, err := json.MarshalIndent(experiments.EncodeBench(br), "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "sigsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(out))
		return
	}

	fmt.Printf("benchmark %s: %d instructions, checksum %#08x verified\n\n",
		b.Name, retired, b.Checksum)

	if timeline != nil {
		fmt.Print(timeline.Render())
		fmt.Println()
	}

	var baseCPI float64
	for _, m := range models {
		if m.Name() == pipeline.NameBaseline32 {
			baseCPI = m.Result().CPI()
		}
	}
	t := stats.NewTable("CPI", "model", "cycles", "CPI", "vs baseline32")
	for _, m := range models {
		r := m.Result()
		ratio := "n/a"
		if baseCPI > 0 {
			ratio = stats.Ratio(r.CPI(), baseCPI)
		}
		t.AddStringRow(r.Model, fmt.Sprintf("%d", r.Cycles),
			fmt.Sprintf("%.3f", r.CPI()), ratio)
	}
	fmt.Println(t.String())

	for _, m := range models {
		r := m.Result()
		if len(r.Stalls) == 0 {
			continue
		}
		kinds := make([]string, 0, len(r.Stalls))
		for k := range r.Stalls {
			kinds = append(kinds, string(k))
		}
		sort.Strings(kinds)
		fmt.Printf("stalls %s:", r.Model)
		for _, k := range kinds {
			fmt.Printf(" %s=%d", k, r.Stalls[pipeline.StallKind(k)])
		}
		fmt.Println()
	}

	for _, m := range models {
		fu := m.FetchUnit()
		if fu == nil {
			continue
		}
		fmt.Printf("fetch %s: %d B/cycle, buffer %d B (max occupancy %d), into-decode IPC %.3f, pairs %d, buffer stalls %d\n",
			m.Name(), fu.BytesPerCycle, fu.BufferBytes, fu.MaxOccupancy,
			fu.IntoDecodeIPC(m.Result().Insts), fu.DualIssued, fu.BufferStalls)
	}

	fmt.Println()
	at := stats.NewTable("Activity reduction (byte granularity)", "stage", "reduction")
	row := byteCol.Counts().Row()
	for i, s := range activity.Stages() {
		at.AddStringRow(s, stats.Pct(row[i]))
	}
	fmt.Println(at.String())
}

// loadOrCapture resolves b's capture through dir: a valid persisted
// capture file is reused, anything else (missing, corrupt, another format,
// wrong suite build) falls back to interpreting, and a fresh capture is
// persisted for next time, replacing the file that would not load. With
// useMmap the file is mapped and streamed — replay memory stays at one
// frame, not the whole decoded trace; without it the file is decoded
// eagerly.
func loadOrCapture(dir string, b bench.Benchmark, useMmap bool) (trace.Replayer, error) {
	if rep, err := trace.LoadCaptureFile(dir, b, useMmap); err == nil {
		how := "replaying persisted"
		if useMmap {
			how = "streaming mapped"
		}
		fmt.Fprintf(os.Stderr, "sigsim: %s capture %s\n", how, trace.CaptureFilePath(dir, b.Name))
		return rep, nil
	}
	cp, err := trace.CaptureRun(context.Background(), b)
	if err != nil {
		return nil, err
	}
	if p, err := trace.WriteCaptureFile(dir, cp); err == nil {
		fmt.Fprintf(os.Stderr, "sigsim: persisted capture to %s\n", p)
	}
	return cp, nil
}

// runSuite executes the full evaluation (every benchmark through every
// model) with benchmark-level parallelism and prints a per-benchmark CPI
// table, or the complete machine-readable evaluation with -json. Each
// benchmark is interpreted once into a captured trace that is replayed per
// model.
func runSuite(workers int, jsonOut bool) {
	fmt.Fprintf(os.Stderr, "sigsim: running the full suite (%d workers)...\n", workers)
	r, err := experiments.RunSuite(context.Background(), bench.All(), workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sigsim: %v\n", err)
		os.Exit(1)
	}
	if jsonOut {
		data, err := r.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "sigsim: %v\n", err)
			os.Exit(1)
		}
		os.Stdout.Write(data)
		fmt.Println()
		return
	}
	models := pipeline.AllNames()
	t := stats.NewTable("CPI (full suite)", append([]string{"benchmark"}, models...)...)
	for _, br := range r.Bench {
		cells := []string{br.Name}
		for _, m := range models {
			cells = append(cells, fmt.Sprintf("%.3f", br.CPI[m]))
		}
		t.AddStringRow(cells...)
	}
	avg := []string{"AVG"}
	for _, m := range models {
		avg = append(avg, fmt.Sprintf("%.3f", r.MeanCPI(m)))
	}
	t.AddStringRow(avg...)
	fmt.Println(t.String())
	fmt.Println(r.FetchSummary())
}
