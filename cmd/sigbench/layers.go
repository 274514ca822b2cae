package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/activity"
	"repro/internal/bench"
	"repro/internal/bmgating"
	"repro/internal/experiments"
	"repro/internal/icomp"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/simsvc"
	"repro/internal/trace"
)

const (
	// layerBenches is how many seeded benchmarks the layer pass measures:
	// about a quarter of the suite keeps a traced run's extra time near the
	// timed phase's.
	layerBenches = 4
	// layerReps repeats the millisecond-scale merge and encode calls; their
	// median is reported.
	layerReps = 21
)

// nopBatch discards replayed blocks, so a replay into it times the replay
// engine alone.
type nopBatch struct{}

func (nopBatch) Consume(trace.Event)       {}
func (nopBatch) ConsumeBlock(*trace.Block) {}

// layerPass times each layer's public calls, one call at a time on an
// otherwise idle process, over a seeded subset of the workload's benchmarks
// (the recoder profile always covers the whole suite, as a shard's does).
// Every call is a span under one "layers" root.
func (r *runner) layerPass(ctx context.Context) (map[string]metric, error) {
	r.rec.setOn(true)
	defer r.rec.setOn(false)
	root := r.rec.start("layers", 0, r.workload+"-layers", "")
	defer r.rec.end(root)
	// call times fn under a span and counts the heap allocations it made.
	call := func(name string, fn func() error) (time.Duration, uint64, error) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sp := r.rec.start(name, root.id(), "", "")
		t := time.Now()
		err := fn()
		d := time.Since(t)
		r.rec.end(sp)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", name, err)
		}
		return d, m1.Mallocs - m0.Mallocs, nil
	}
	out := make(map[string]metric)
	perInst := func(d time.Duration, insts int) float64 { return float64(d.Nanoseconds()) / float64(insts) }

	var (
		rc     *icomp.Recoder
		functs map[isa.Funct]uint64
	)
	d, _, err := call("trace.recoder_profile", func() (err error) {
		rc, functs, err = trace.SuiteRecoder(bench.All())
		return err
	})
	if err != nil {
		return nil, err
	}
	out["trace.recoder_profile_s"] = metric{d.Seconds(), "s"}

	subset := append([]bench.Benchmark(nil), r.benches...)
	rand.New(rand.NewSource(r.seed)).Shuffle(len(subset), func(i, j int) { subset[i], subset[j] = subset[j], subset[i] })
	subset = subset[:min(layerBenches, len(subset))]

	var cpuTime time.Duration
	var cpuInsts uint64
	for _, b := range subset {
		c, err := b.NewCPU()
		if err != nil {
			return nil, err
		}
		d, _, err := call("cpu.run", func() error {
			_, err := c.Run(b.MaxInsts)
			return err
		})
		if err != nil {
			return nil, err
		}
		cpuTime += d
		cpuInsts += c.Retired
	}
	out["cpu.insts_per_s"] = metric{float64(cpuInsts) / cpuTime.Seconds(), "inst/s"}

	caps := make([]*trace.Capture, len(subset))
	var insts, capBytes int
	var capTime time.Duration
	for i, b := range subset {
		d, _, err := call("trace.capture", func() (err error) {
			caps[i], err = trace.CaptureRun(ctx, b)
			return err
		})
		if err != nil {
			return nil, err
		}
		capTime += d
		insts += caps[i].Len()
		capBytes += caps[i].SizeBytes()
	}
	out["trace.capture_ns_per_inst"] = metric{perInst(capTime, insts), "ns/inst"}
	out["trace.capture_bytes_per_inst"] = metric{float64(capBytes) / float64(insts), "B/inst"}

	// sum runs fn on every capture under one span name and returns the total
	// time and allocations.
	sum := func(name string, fn func(cp *trace.Capture) func() error) (time.Duration, uint64, error) {
		var total time.Duration
		var allocs uint64
		for _, cp := range caps {
			d, a, err := call(name, fn(cp))
			if err != nil {
				return 0, 0, err
			}
			total += d
			allocs += a
		}
		return total, allocs, nil
	}

	d, _, err = sum("trace.replay", func(cp *trace.Capture) func() error {
		return func() error { return cp.ReplayBlocks(ctx, rc, nopBatch{}) }
	})
	if err != nil {
		return nil, err
	}
	out["trace.replay_ns_per_inst"] = metric{perInst(d, insts), "ns/inst"}

	dir, err := os.MkdirTemp(r.dir, "layers-")
	if err != nil {
		return nil, err
	}
	paths := make(map[*trace.Capture]string)
	d, _, err = sum("trace.capfile_write", func(cp *trace.Capture) func() error {
		return func() (err error) {
			paths[cp], err = trace.WriteCaptureFile(dir, cp)
			return err
		}
	})
	if err != nil {
		return nil, err
	}
	var fileBytes int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		fileBytes += fi.Size()
	}
	out["trace.capfile_write_ns_per_inst"] = metric{perInst(d, insts), "ns/inst"}
	out["trace.capfile_bytes_per_inst"] = metric{float64(fileBytes) / float64(insts), "B/inst"}

	var openTime, mappedTime time.Duration
	for _, cp := range caps {
		var mc *trace.MappedCapture
		d, _, err := call("trace.mapped_open", func() (err error) {
			mc, err = trace.OpenMappedCapture(paths[cp])
			return err
		})
		if err != nil {
			return nil, err
		}
		openTime += d
		d, _, err = call("trace.mapped_replay", func() error { return mc.ReplayBlocks(ctx, rc, nopBatch{}) })
		mc.Close()
		if err != nil {
			return nil, err
		}
		mappedTime += d
	}
	out["trace.mapped_open_us"] = metric{float64(openTime.Microseconds()) / float64(len(caps)), "us"}
	out["trace.mapped_replay_ns_per_inst"] = metric{perInst(mappedTime, insts), "ns/inst"}

	// The full per-benchmark fan-out; its results feed the merge below and
	// name the predictor variants it evaluates.
	results := make([]experiments.BenchResult, len(caps))
	cols := make([]*experiments.SuiteCollectors, len(caps))
	var fanTime time.Duration
	for i, cp := range caps {
		cols[i] = experiments.NewSuiteCollectors()
		d, _, err := call("experiments.run_bench_replay", func() (err error) {
			results[i], err = experiments.RunBenchReplay(ctx, cp, rc, cols[i])
			return err
		})
		if err != nil {
			return nil, err
		}
		fanTime += d
	}
	out["experiments.bench_replay_ns_per_inst"] = metric{perInst(fanTime, insts), "ns/inst"}

	models := pipeline.AllNames()
	var predicted []string
	for name := range results[0].CPI {
		if strings.HasSuffix(name, "+bp") {
			predicted = append(predicted, name)
		}
	}
	sort.Strings(predicted)
	for _, name := range append(models, predicted...) {
		newModel := func() *pipeline.Model { return pipeline.New(name) }
		if base, ok := strings.CutSuffix(name, "+bp"); ok {
			newModel = func() *pipeline.Model { return pipeline.NewPredicted(base) }
		}
		d, allocs, err := sum("pipeline."+name, func(cp *trace.Capture) func() error {
			m := newModel()
			return func() error { return cp.ReplayBlocks(ctx, rc, m) }
		})
		if err != nil {
			return nil, err
		}
		key := "pipeline." + strings.ReplaceAll(name, "+", "_")
		out[key+".ns_per_inst"] = metric{perInst(d, insts), "ns/inst"}
		out[key+".allocs_per_inst"] = metric{float64(allocs) / float64(insts), "allocs/inst"}
	}

	collectors := []struct {
		name string
		mk   func(*mem.Memory) trace.Consumer
	}{
		{"activity.byte", func(m *mem.Memory) trace.Consumer { return activity.NewCollector(1, rc, m) }},
		{"activity.half", func(m *mem.Memory) trace.Consumer { return activity.NewCollector(2, rc, m) }},
		{"activity.scheme2", func(m *mem.Memory) trace.Consumer { return activity.NewCollectorScheme(1, activity.Scheme2, rc, m) }},
		{"activity.patterns", func(*mem.Memory) trace.Consumer { return activity.NewPatternStats() }},
		{"activity.fetch", func(*mem.Memory) trace.Consumer { return &activity.FetchStats{} }},
		{"activity.partitions", func(*mem.Memory) trace.Consumer { return activity.NewPartitionStats() }},
		{"activity.width64", func(*mem.Memory) trace.Consumer { return activity.NewWidth64Stats() }},
		{"activity.frontend", func(*mem.Memory) trace.Consumer { return activity.NewFrontendStats() }},
		{"bmgating.collector", func(*mem.Memory) trace.Consumer { return bmgating.NewCollector() }},
	}
	for _, c := range collectors {
		var total time.Duration
		for _, cp := range caps {
			m, err := cp.NewMemory()
			if err != nil {
				return nil, err
			}
			col := c.mk(m)
			d, _, err := call(c.name, func() error { return cp.ReplayBlocksOn(ctx, m, rc, col) })
			if err != nil {
				return nil, err
			}
			total += d
		}
		out[c.name+".ns_per_inst"] = metric{perInst(total, insts), "ns/inst"}
	}

	// Partials as up to three shards would send them for this subset.
	order := make([]string, len(caps))
	parts := make([]*experiments.PartialSuite, min(gatewayShards, len(caps)))
	masters := make([]*experiments.SuiteCollectors, len(parts))
	for j := range parts {
		parts[j] = &experiments.PartialSuite{Functs: experiments.EncodeFuncts(functs, rc)}
		masters[j] = experiments.NewSuiteCollectors()
	}
	var totalInsts uint64
	for i := range caps {
		order[i] = results[i].Name
		totalInsts += results[i].Insts
		j := i % len(parts)
		parts[j].Benchmarks = append(parts[j].Benchmarks, experiments.EncodeBench(results[i]))
		masters[j].Merge(cols[i])
	}
	for j := range parts {
		parts[j].Collectors = masters[j].State()
	}
	// median runs fn layerReps times and returns the median duration.
	median := func(name string, fn func() error) (time.Duration, error) {
		ds := make([]time.Duration, layerReps)
		for i := range ds {
			d, _, err := call(name, fn)
			if err != nil {
				return 0, err
			}
			ds[i] = d
		}
		return quantile(ds, 0.5), nil
	}
	var suite *experiments.JSONResults
	merge, err := median("experiments.merge_partials", func() (err error) {
		suite, _, err = experiments.MergePartials(order, parts)
		return err
	})
	if err != nil {
		return nil, err
	}
	encode, err := median("experiments.suite_encode", func() error {
		// The same encoding the suite handlers write.
		enc := json.NewEncoder(io.Discard)
		enc.SetIndent("", "  ")
		return enc.Encode(&simsvc.Response{Insts: totalInsts, Suite: suite})
	})
	if err != nil {
		return nil, err
	}
	out["experiments.merge_partials_ms"] = metric{ms(merge), "ms"}
	out["experiments.suite_encode_ms"] = metric{ms(encode), "ms"}
	return out, nil
}
