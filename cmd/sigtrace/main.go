// Command sigtrace records benchmark execution traces to disk and replays
// them through pipeline models and activity collectors — the classic
// trace-driven-simulation workflow (record once, study many times).
//
// Usage:
//
//	sigtrace -record -bench rawcaudio -o caps   # writes caps/rawcaudio.sigcap (SIGCAP02)
//	sigtrace -replay caps/rawcaudio.sigcap -model byteserial
//	sigtrace -replay caps/rawcaudio.sigcap      # all models + activity
//
// Replay streams the SIGCAP02 file frame by frame out of a read-only
// mapping. Any other file is refused with the magic it carries; a trace in
// an older format is re-recorded with -record, which writes exactly what a
// conversion would (a capture is a deterministic function of its
// benchmark).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"repro/internal/activity"
	"repro/internal/bench"
	"repro/internal/icomp"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	record := flag.Bool("record", false, "record a benchmark trace")
	benchName := flag.String("bench", "", "benchmark to record")
	out := flag.String("o", ".", "output directory for -record (the file is <bench>.sigcap)")
	replay := flag.String("replay", "", "trace file to replay")
	modelName := flag.String("model", "", "pipeline model for replay (default: all)")
	flag.Parse()

	switch {
	case *record:
		if err := doRecord(*benchName, *out); err != nil {
			fmt.Fprintf(os.Stderr, "sigtrace: %v\n", err)
			os.Exit(1)
		}
	case *replay != "":
		if err := doReplay(*replay, *modelName); err != nil {
			fmt.Fprintf(os.Stderr, "sigtrace: %v\n", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func doRecord(name, dir string) error {
	b, ok := bench.ByName(name)
	if !ok {
		return fmt.Errorf("unknown benchmark %q (have: %v)", name, bench.Names())
	}
	cp, err := trace.CaptureRun(context.Background(), b)
	if err != nil {
		return err
	}
	path, err := trace.WriteCaptureFile(dir, cp)
	if err != nil {
		return err
	}
	fmt.Printf("recorded %d instructions of %s to %s\n", cp.Len(), b.Name, path)
	return nil
}

func doReplay(path, modelName string) error {
	rc := icomp.MustNewRecoder(icomp.DefaultTopFuncts())

	names := pipeline.AllNames()
	if modelName != "" {
		if pipeline.New(modelName) == nil {
			return fmt.Errorf("unknown model %q", modelName)
		}
		names = []string{modelName}
	}
	models := make([]*pipeline.Model, len(names))
	consumers := make([]trace.Consumer, 0, len(names))
	for i, n := range names {
		models[i] = pipeline.New(n)
		consumers = append(consumers, models[i])
	}
	patterns := activity.NewPatternStats()
	consumers = append(consumers, patterns)

	// Interrupt aborts the replay between frames instead of leaving the
	// process to grind through the rest of a long trace.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	n, err := replayFile(ctx, path, rc, consumers)
	if err != nil {
		return err
	}
	fmt.Printf("replayed %d instructions from %s\n\n", n, path)
	t := stats.NewTable("CPI (replayed)", "model", "CPI")
	for _, m := range models {
		t.AddStringRow(m.Name(), fmt.Sprintf("%.3f", m.Result().CPI()))
	}
	fmt.Println(t.String())
	fmt.Printf("operand 2-bit coverage: %.1f%%\n", patterns.TwoBitCoverage())
	return nil
}

// replayFile streams path's capture into consumers and returns the
// instruction count. A file that is not SIGCAP02 fails with the magic it
// carries and how to get a replayable capture instead.
func replayFile(ctx context.Context, path string, rc *icomp.Recoder, consumers []trace.Consumer) (uint64, error) {
	mc, err := trace.OpenMappedCapture(path)
	if err != nil {
		var ce *trace.CorruptError
		if errors.As(err, &ce) {
			return 0, fmt.Errorf("%w; re-record it with sigtrace -record -bench <name>", err)
		}
		return 0, err
	}
	defer mc.Close()
	m, err := mc.NewMemory()
	if err != nil {
		return 0, err
	}
	if err := mc.ReplayBlocksOn(ctx, m, rc, consumers...); err != nil {
		return 0, err
	}
	return uint64(mc.Len()), nil
}
