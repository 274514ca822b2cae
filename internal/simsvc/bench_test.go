package simsvc

import (
	"context"
	"fmt"
	"testing"

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
