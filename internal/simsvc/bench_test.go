package simsvc

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/pipeline"
)

// BenchmarkSweepColdVsWarm compares a 3-benchmark × 3-model sweep on a
// cold service (a new one per sweep: recoder profile, one capture per
// benchmark, then a replay per job) against a warm one whose trace cache
// already holds every capture (steady-state serving, the case the engine
// exists for). CacheSize 1 defeats the result LRU, so every job really
// runs. Scalar against batch replay of one model is
// pipeline.BenchmarkModelReplay.
func BenchmarkSweepColdVsWarm(b *testing.B) {
	benches := []string{"dijkstra", "g711dec", "rawdaudio"}
	models := []string{pipeline.NameBaseline32, pipeline.NameByteSerial, pipeline.NameParallelCompressed}

	newSvc := func(b *testing.B) *Service {
		b.Helper()
		cfg := Config{Workers: 1, CacheSize: 1}
		for _, n := range benches {
			bm, ok := bench.ByName(n)
			if !ok {
				b.Fatalf("unknown benchmark %q", n)
			}
			cfg.Benchmarks = append(cfg.Benchmarks, bm)
		}
		return New(cfg)
	}

	sweep := func(b *testing.B, s *Service) {
		b.Helper()
		sum, err := s.Sweep(context.Background(), 1, benches, models, nil)
		if err != nil {
			b.Fatal(err)
		}
		if sum.Failed != 0 {
			b.Fatalf("sweep failed %d jobs: %+v", sum.Failed, sum.FailedByModel)
		}
	}

	name := fmt.Sprintf("benches=%d/models=%d", len(benches), len(models))
	b.Run("cold/"+name, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := newSvc(b)
			sweep(b, s)
			s.Close()
		}
	})
	b.Run("warm/"+name, func(b *testing.B) {
		s := newSvc(b)
		b.Cleanup(s.Close)
		sweep(b, s) // warm-up: recoder profile + trace captures
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sweep(b, s)
		}
	})
}

// BenchmarkColdShardTraffic measures what a cold shard's first request
// costs under the two traffic shapes the recoder derivation bets between.
// The derivation captures every served benchmark, so it pays off when
// traffic touches the whole suite and the trace budget holds it, and costs
// captures nobody replays when traffic touches a few benchmarks. Each
// iteration starts a new service over the full suite and sends one of:
//
//   - subset: one benchmark (g711dec) under every model;
//   - suite: two models, each over every benchmark in suite order;
//
// at the default trace budget and at 32 MB (below the suite's ~87 MB of
// resident captures). first_ms is the first request's latency; captures
// and trace_MB are the shard's interpreter runs and cached trace bytes
// afterwards.
func BenchmarkColdShardTraffic(b *testing.B) {
	ctx := context.Background()
	var subset, suite []Request
	for _, m := range pipeline.AllNames() {
		subset = append(subset, Request{Bench: "g711dec", Model: m, Gran: 1})
	}
	for _, m := range []string{pipeline.NameBaseline32, pipeline.NameByteSerial} {
		for _, bm := range bench.All() {
			suite = append(suite, Request{Bench: bm.Name, Model: m, Gran: 1})
		}
	}
	for _, traffic := range []struct {
		name string
		reqs []Request
	}{{"subset", subset}, {"suite", suite}} {
		for _, mb := range []int{0, 32} {
			b.Run(fmt.Sprintf("traffic=%s/trace-mb=%d", traffic.name, mb), func(b *testing.B) {
				var first time.Duration
				var captures uint64
				var traceBytes int64
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s := New(Config{Workers: 2, TraceCacheMB: mb})
					start := time.Now()
					for j, req := range traffic.reqs {
						if _, err := s.Simulate(ctx, req); err != nil {
							b.Fatal(err)
						}
						if j == 0 {
							first += time.Since(start)
						}
					}
					captures += s.Metrics().Snapshot().Captures
					traceBytes += s.TraceCacheBytes()
					s.Close()
				}
				n := float64(b.N)
				b.ReportMetric(float64(first.Milliseconds())/n, "first_ms")
				b.ReportMetric(float64(captures)/n, "captures")
				b.ReportMetric(float64(traceBytes)/n/(1<<20), "trace_MB")
			})
		}
	}
}
