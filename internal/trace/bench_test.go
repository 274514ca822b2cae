package trace_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/icomp"
	"repro/internal/trace"
)

func benchRecoder(b *testing.B) *icomp.Recoder {
	b.Helper()
	rc, err := icomp.NewRecoder(icomp.DefaultTopFuncts())
	if err != nil {
		b.Fatal(err)
	}
	return rc
}

// BenchmarkStepAnnotate measures the streaming interpreter (Interpret):
// step the benchmark, annotate every retired instruction into the reused
// window, and emit its blocks (miss events included) to a discarding
// consumer.
func BenchmarkStepAnnotate(b *testing.B) {
	bm := mustBench(b, "dijkstra")
	rc := benchRecoder(b)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := bm.NewCPU()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := trace.Interpret(ctx, c, bm.MaxInsts, nil, rc, nopConsumer); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCapture measures capture alone: interpret once, record the
// columnar trace, no annotation consumers attached.
func BenchmarkCapture(b *testing.B) {
	bm := mustBench(b, "dijkstra")
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := trace.CaptureRun(ctx, bm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCaptureSuite compares capture with the bare interpreter over the
// whole suite: each iteration runs every benchmark on cpu.CPU.Run and then
// captures it with CaptureRun, and the benchmark reports both costs per
// retired instruction and their ratio (capture-x), the cold-start overhead
// recording adds to execution.
func BenchmarkCaptureSuite(b *testing.B) {
	ctx := context.Background()
	var interp, capture time.Duration
	var insts int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, bm := range bench.All() {
			c, err := bm.NewCPU()
			if err != nil {
				b.Fatal(err)
			}
			t := time.Now()
			if _, err := c.Run(bm.MaxInsts); err != nil {
				b.Fatal(err)
			}
			interp += time.Since(t)
			t = time.Now()
			cp, err := trace.CaptureRun(ctx, bm)
			capture += time.Since(t)
			if err != nil {
				b.Fatal(err)
			}
			insts += cp.Len()
		}
	}
	b.ReportMetric(float64(capture.Nanoseconds())/float64(insts), "capture-ns/inst")
	b.ReportMetric(float64(interp.Nanoseconds())/float64(insts), "interp-ns/inst")
	b.ReportMetric(float64(capture)/float64(interp), "capture-x")
}

// BenchmarkReplayBlocks measures the column-block batch path over a fully
// resident capture — the hot loop of a warm sweep once the trace is decoded.
func BenchmarkReplayBlocks(b *testing.B) {
	bm := mustBench(b, "dijkstra")
	rc := benchRecoder(b)
	ctx := context.Background()
	cp, err := trace.CaptureRun(ctx, bm)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cp.ReplayBlocks(ctx, rc, nopConsumer); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayStreamed measures the same batch replay streamed from a
// mapped SIGCAP02 file: every frame is CRC-checked and decoded on the fly
// into one reused buffer (one varint pass per column, then the predictors
// in place), so replay memory is O(frame) instead of O(trace). The miss
// stream is built by the first iteration and memoized after, as on a
// serving shard, so the delta against BenchmarkReplayBlocks is the
// per-frame decode cost. Run it with -cpu 1.
func BenchmarkReplayStreamed(b *testing.B) {
	bm := mustBench(b, "dijkstra")
	rc := benchRecoder(b)
	ctx := context.Background()
	cp, err := trace.CaptureRun(ctx, bm)
	if err != nil {
		b.Fatal(err)
	}
	path, err := trace.WriteCaptureFile(b.TempDir(), cp)
	if err != nil {
		b.Fatal(err)
	}
	mc, err := trace.OpenMappedCapture(path)
	if err != nil {
		b.Fatal(err)
	}
	defer mc.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mc.ReplayBlocks(ctx, rc, nopConsumer); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteTo2 measures the SIGCAP02 encoder alone: dijkstra's capture
// serialized into a reused in-memory buffer, as WriteCaptureFile does into
// a file.
func BenchmarkWriteTo2(b *testing.B) {
	cp, err := trace.CaptureRun(context.Background(), mustBench(b, "dijkstra"))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if _, err := cp.WriteTo2(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
