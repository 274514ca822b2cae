// Command sigtrace records benchmark execution traces to disk and replays
// them through pipeline models and activity collectors — the classic
// trace-driven-simulation workflow (record once, study many times).
//
// Usage:
//
//	sigtrace -record -bench rawcaudio -o caps   # writes caps/rawcaudio.sigcap (SIGCAP02)
//	sigtrace -replay caps/rawcaudio.sigcap -model byteserial
//	sigtrace -replay caps/rawcaudio.sigcap      # all models + activity
//	sigtrace -replay old.trc                    # SIGCAP02 streams from a mapping,
//	                                            # SIGCAP01 decodes eagerly, legacy
//	                                            # SIGTRC01 loads into a capture
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
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

	// Interrupt aborts the replay between records instead of leaving the
	// process to grind through the rest of a long trace.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Dispatch on the file's magic: SIGCAP02 captures stream frame by frame
	// out of a read-only mapping (replay memory stays at one frame),
	// SIGCAP01 captures decode eagerly, and anything else is a legacy
	// SIGTRC01 event trace, loaded into a capture.
	n, how, err := replayFile(ctx, path, rc, consumers)
	if err != nil {
		return err
	}
	fmt.Printf("replayed %d instructions from %s (%s)\n\n", n, path, how)
	t := stats.NewTable("CPI (replayed)", "model", "CPI")
	for _, m := range models {
		t.AddStringRow(m.Name(), fmt.Sprintf("%.3f", m.Result().CPI()))
	}
	fmt.Println(t.String())
	fmt.Printf("operand 2-bit coverage: %.1f%%\n", patterns.TwoBitCoverage())
	return nil
}

// replayFile feeds path's trace into consumers, picking the engine by the
// file's leading magic, and returns the instruction count plus a short
// description of the path taken.
func replayFile(ctx context.Context, path string, rc *icomp.Recoder, consumers []trace.Consumer) (uint64, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, "", err
	}
	defer f.Close()
	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err == nil {
		switch string(magic[:]) {
		case "SIGCAP02":
			mc, err := trace.OpenMappedCapture(path)
			if err != nil {
				return 0, "", err
			}
			defer mc.Close()
			m, err := mc.NewMemory()
			if err != nil {
				return 0, "", err
			}
			if err := mc.ReplayBlocksOn(ctx, m, rc, consumers...); err != nil {
				return 0, "", err
			}
			return uint64(mc.Len()), "SIGCAP02, streamed from mapping", nil
		case "SIGCAP01":
			cp, err := trace.ReadCaptureFile(path)
			if err != nil {
				return 0, "", err
			}
			m, err := cp.NewMemory()
			if err != nil {
				return 0, "", err
			}
			if err := cp.ReplayBlocksOn(ctx, m, rc, consumers...); err != nil {
				return 0, "", err
			}
			return uint64(cp.Len()), "SIGCAP01, eager decode", nil
		}
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, "", err
	}
	r, err := trace.NewReader(f)
	if err != nil {
		return 0, "", err
	}
	// The file names no benchmark, so there is no memory image to rebuild;
	// the replayed consumers never read program memory.
	cp, err := r.ReadCapture(bench.Benchmark{})
	if err != nil {
		return 0, "", err
	}
	if err := cp.ReplayBlocks(ctx, rc, consumers...); err != nil {
		return 0, "", err
	}
	return uint64(cp.Len()), "SIGTRC01 event trace", nil
}
