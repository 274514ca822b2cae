package simsvc

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/pipeline"
)

// BenchmarkSweepReplayVsExecute compares a 3-benchmark × 3-model sweep on
// the capture/replay path (warm trace cache) against the live path that
// re-interprets every job. CacheSize 1 defeats the result LRU in both arms
// so every job really runs; each arm gets one untimed warm-up sweep (which
// fills the replay arm's trace cache — steady-state serving, the case the
// engine exists for). Scalar against batch replay of one model is
// pipeline.BenchmarkModelReplay.
func BenchmarkSweepReplayVsExecute(b *testing.B) {
	benches := []string{"dijkstra", "g711dec", "rawdaudio"}
	models := []string{pipeline.NameBaseline32, pipeline.NameByteSerial, pipeline.NameParallelCompressed}

	newSvc := func(b *testing.B, traceCacheMB int) *Service {
		b.Helper()
		cfg := Config{Workers: 1, CacheSize: 1, TraceCacheMB: traceCacheMB}
		for _, n := range benches {
			bm, ok := bench.ByName(n)
			if !ok {
				b.Fatalf("unknown benchmark %q", n)
			}
			cfg.Benchmarks = append(cfg.Benchmarks, bm)
		}
		s := New(cfg)
		b.Cleanup(s.Close)
		return s
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

	for _, arm := range []struct {
		name         string
		traceCacheMB int
	}{
		{"execute", -1}, // live reference path: interpret every job
		{"replay", 0},   // replay each job over column blocks
	} {
		b.Run(fmt.Sprintf("%s/benches=%d/models=%d", arm.name, len(benches), len(models)), func(b *testing.B) {
			s := newSvc(b, arm.traceCacheMB)
			sweep(b, s) // warm-up: recoder profile + (replay arm) trace captures
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sweep(b, s)
			}
		})
	}
}
