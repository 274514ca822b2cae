package pipeline

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/icomp"
	"repro/internal/trace"
)

// BenchmarkModelReplay measures one model's kernel consuming one captured
// benchmark trace — the per-job cost of a warm sweep.
func BenchmarkModelReplay(b *testing.B) {
	bm, ok := bench.ByName("dijkstra")
	if !ok {
		b.Fatal("unknown benchmark")
	}
	ctx := context.Background()
	cp, err := trace.CaptureRun(ctx, bm)
	if err != nil {
		b.Fatal(err)
	}
	rc := icomp.MustNewRecoder(icomp.DefaultTopFuncts())
	for _, model := range []string{NameBaseline32, NameByteSerial, NameParallelCompressed} {
		b.Run(model, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := New(model)
				if err := cp.ReplayBlocks(ctx, rc, m); err != nil {
					b.Fatal(err)
				}
				if m.Result().Cycles == 0 {
					b.Fatal("no cycles")
				}
			}
		})
	}
}
