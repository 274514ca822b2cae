// Command sigbench is this repository's benchmark. It drives three workloads
// through the real sigserve and siggate HTTP handlers (simsvc.NewHandler and
// cluster.NewHandler on in-process listeners), checks every simulated result
// against a committed golden, and prints the end-to-end metrics of each run.
// A traced run records spans around the benchmark's calls into each layer
// and prints per-layer metrics instead. README.md describes the workloads,
// the metrics and how to compare two commits.
//
// Usage:
//
//	sigbench                                 every workload, each in a child process
//	sigbench -workload NAME [-seed N] [-seconds S] [-trace 0|1|FILE]
//	sigbench -runs 10 -out ledger.json       record runs in a ledger
//	sigbench -trace spans.json               also a traced run of each workload
//	sigbench -compare parent.json change.json
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/bench"
)

// workDir holds run scratch space and the spans of traced runs, relative to
// the working directory.
const workDir = ".bench_build/sigbench"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "run only this workload, in this process (default: every workload, each in a child process)")
	seed := flag.Int64("seed", 1, "seed of the generated requests")
	seconds := flag.Int("seconds", 25, "length of the timed phase, in seconds")
	traceArg := flag.String("trace", "0", `"0": untraced; "1" or a file: traced, reporting per-layer metrics and writing spans to the file (default `+workDir+`/spans-<workload>-<seed>.json)`)
	runs := flag.Int("runs", 1, "without -workload: runs of each workload, with seeds seed, seed+1, ...")
	out := flag.String("out", "", "without -workload: ledger file the runs are appended to")
	parent := flag.String("compare", "", "compare the ledger named by the argument against this parent ledger")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch {
	case *parent != "":
		err = runCompare(*parent, flag.Arg(0))
	case *seconds < 1:
		err = errors.New("-seconds must be at least 1")
	case *workload != "":
		var ok bool
		ok, err = runWorkload(ctx, *workload, *seed, *seconds, *traceArg)
		if err == nil && !ok {
			stop()
			os.Exit(1)
		}
	default:
		err = orchestrate(*seed, *seconds, *runs, *traceArg, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sigbench:", err)
		stop()
		os.Exit(1)
	}
}

// runWorkload runs one workload in this process and prints its metrics, the
// result line last. It reports whether every output was correct.
func runWorkload(ctx context.Context, name string, seed int64, seconds int, traceArg string) (bool, error) {
	g, err := loadGolden()
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return false, err
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)
	r := &runner{workload: name, seed: seed, seconds: seconds, benches: bench.All(), golden: g, dir: dir}
	if traceArg != "0" {
		r.rec = newRecorder()
	}
	res, err := r.run(ctx)
	if err != nil {
		return false, err
	}
	if r.firstErr != nil {
		fmt.Fprintf(os.Stderr, "sigbench: %s: %d of %d ops failed; first: %v\n", name, r.failed, r.attempted, r.firstErr)
	}
	if r.rec != nil {
		e2e := res.Metrics
		if res.Metrics, err = r.perLayer(ctx); err != nil {
			return false, err
		}
		path := traceArg
		if path == "1" {
			path = filepath.Join(workDir, fmt.Sprintf("spans-%s-%d.json", name, seed))
		}
		sf := spanFile{Workload: name, Seed: seed, EndToEnd: e2e, Spans: r.rec.snapshot()}
		if err := writeJSONFile(path, sf); err != nil {
			return false, err
		}
	}
	printMetrics(os.Stdout, name, res, len(r.lat))
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Printf("%s\n", line)
	return res.Correct, nil
}

// run runs the workload and returns its end-to-end metrics.
func (r *runner) run(ctx context.Context) (result, error) {
	var fn func(context.Context, *runner) error
	for _, w := range workloads {
		if w.name == r.workload {
			fn = w.run
			if r.reps == 0 {
				r.reps = w.reps
			}
		}
	}
	if fn == nil {
		return result{}, fmt.Errorf("unknown workload %q", r.workload)
	}
	if err := fn(ctx, r); err != nil {
		return result{}, fmt.Errorf("%s: %w", r.workload, err)
	}
	return result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics: map[string]metric{
			"setup_s":          {quantile(r.setups, 0.5).Seconds(), "s"},
			"latency_p50_ms":   {ms(quantile(r.lat, 0.5)), "ms"},
			"sim_minsts_per_s": {r.work / r.wall.Seconds() / 1e6, "Minst/s"},
			"peak_rss_mb":      {r.peakRSS, "MiB"},
		},
	}, nil
}

// perLayer runs the layer pass and adds the workload's counter and span
// metrics.
func (r *runner) perLayer(ctx context.Context) (map[string]metric, error) {
	out, err := r.layerPass(ctx)
	if err != nil {
		return nil, err
	}
	ratio := func(hits, misses float64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return hits / (hits + misses)
	}
	// The tail of the traced timed phase: on the reference machine its
	// run-to-run spread is wider than any bound an end-to-end metric may
	// have, so it is reported here rather than gated.
	out["latency_p99_ms"] = metric{ms(quantile(r.lat, 0.99)), "ms"}
	s := r.svc
	out["simsvc.result_cache_hit_ratio"] = metric{ratio(s["hits"], s["misses"]), "ratio"}
	out["simsvc.trace_cache_hit_ratio"] = metric{ratio(s["traceHits"], s["traceMisses"]), "ratio"}
	out["simsvc.trace_map_loads"] = metric{r.mapLoads, "count"}
	for _, k := range []string{"captures", "executions", "shed", "retries"} {
		out["simsvc."+k] = metric{s[k], "count"}
	}
	for _, k := range []string{"partials", "failovers", "hedges"} {
		out["cluster."+k] = metric{r.gw[k], "count"}
	}
	for k, v := range spanMetrics(r.rec.snapshot()) {
		out[k] = v
	}
	return out, nil
}

// peakRSSMiB is this process's peak resident set (VmHWM), in MiB.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

func printMetrics(w *os.File, workload string, res result, samples int) {
	for _, n := range sortedKeys(res.Metrics) {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-18s %-40s %14.6g %s\n", workload, n, m.Value, m.Unit)
	}
	rate := 0.0
	if res.Attempted > 0 {
		rate = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "%-18s ops %d, failed %d, error_rate %g, latency samples %d, outputs match golden: %v\n",
		workload, res.Attempted, res.Failed, rate, samples, res.Correct)
}

// orchestrate runs every workload runs times, each run in its own child
// process so peak RSS is the workload's own; with a trace file it also runs
// each workload traced and reports the tracing overhead.
func orchestrate(seed int64, seconds, runs int, traceFile, outFile string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	l := &ledger{Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Seconds: seconds}
	if outFile != "" {
		old, err := readLedger(outFile)
		switch {
		case err == nil:
			if old.Seconds != seconds {
				return fmt.Errorf("%s holds %d-second runs, not %d", outFile, old.Seconds, seconds)
			}
			l.Runs = old.Runs
		case !errors.Is(err, fs.ErrNotExist):
			return err
		}
	}
	if traceFile == "1" {
		traceFile = filepath.Join(workDir, "spans.json")
	}
	traced := traceFile != "0"
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	spans := make(map[string]spanFile)
	failed := false
	for i := 0; i < runs; i++ {
		for _, w := range workloads {
			s := seed + int64(i)
			res, err := child(exe, w.name, s, seconds, "0")
			if err != nil {
				return err
			}
			failed = failed || !res.Correct
			l.Runs = append(l.Runs, ledgerRun{Workload: w.name, Seed: s, result: res})
			if !traced {
				continue
			}
			path := filepath.Join(workDir, fmt.Sprintf("spans-%s-%d.json", w.name, s))
			tres, err := child(exe, w.name, s, seconds, path)
			if err != nil {
				return err
			}
			failed = failed || !tres.Correct
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			var sf spanFile
			if err := json.Unmarshal(b, &sf); err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			spans[fmt.Sprintf("%s/%d", w.name, s)] = sf
			for _, n := range sortedKeys(res.Metrics) {
				base, tr := res.Metrics[n].Value, sf.EndToEnd[n].Value
				fmt.Printf("%-18s tracing overhead on %-22s %+6.1f%% (untraced %.6g, traced %.6g %s)\n",
					w.name, n, 100*(tr-base)/base, base, tr, res.Metrics[n].Unit)
			}
		}
	}
	if traced {
		if err := writeJSONFile(traceFile, spans); err != nil {
			return err
		}
	}
	if outFile != "" {
		if err := writeJSONFile(outFile, l); err != nil {
			return err
		}
	}
	if failed {
		return errors.New("some outputs did not match the golden")
	}
	return nil
}

// child runs one workload in a child process, passing its report through
// and returning its result line.
func child(exe, workload string, seed int64, seconds int, trace string) (result, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", trace)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("%s: no result (%v)", workload, runErr)
	}
	fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	return res, nil
}

func sortedKeys(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func runCompare(parentPath, changePath string) error {
	if changePath == "" {
		return errors.New("-compare needs the change's ledger as its argument")
	}
	spec, err := findBenchSpec()
	if err != nil {
		return err
	}
	parent, err := readLedger(parentPath)
	if err != nil {
		return err
	}
	change, err := readLedger(changePath)
	if err != nil {
		return err
	}
	if compare(os.Stdout, spec, parent, change) {
		return errors.New("regression beyond a bound in BENCHMARK.json")
	}
	return nil
}
