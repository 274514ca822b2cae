package trace_test

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/activity"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// TestStreamingReplayPerfSmoke is the CI gate for the streaming tier at the
// suite-replay unit: one replay feeding the FULL consumer set (every
// pipeline model plus an activity collector), which is how RunBenchReplay
// and the sigserve suite endpoint drive a capture — decode once, consume
// many. Gates, per the SIGCAP02 design budget:
//
//   - streaming (mapped SIGCAP02, per-frame decode) within 1.3x of the
//     resident batch replay, best-of-N wall clock summed over the benches;
//   - the mapped handle's accounted resident bytes under a quarter of the
//     decoded column size (6 u32 columns/row) — replay memory is O(frame),
//     not O(trace).
//
// Wall-clock gates are too noisy for every developer run, so like the
// simsvc replay smoke this only arms under SIGPERF_SMOKE=1. When
// BENCH_REPLAY_OUT names a file, the measured totals for both tiers
// (batch, streaming) are written there as JSON for the CI artifact trail.
func TestStreamingReplayPerfSmoke(t *testing.T) {
	if os.Getenv("SIGPERF_SMOKE") == "" {
		t.Skip("set SIGPERF_SMOKE=1 to run the wall-clock replay smoke (CI does)")
	}
	benches := []string{"dijkstra", "g711dec", "rawdaudio"}
	rc := defaultRecoder(t)
	ctx := context.Background()
	dir := t.TempDir()

	type arm struct {
		rep trace.Replayer
	}
	resident := make([]arm, len(benches))
	streamed := make([]arm, len(benches))
	var decodedBytes, mappedBytes int64
	for i, name := range benches {
		cp, err := trace.CaptureRun(ctx, mustBench(t, name))
		if err != nil {
			t.Fatalf("%s: CaptureRun: %v", name, err)
		}
		path, err := trace.WriteCaptureFile(dir, cp)
		if err != nil {
			t.Fatalf("%s: WriteCaptureFile: %v", name, err)
		}
		mc, err := trace.OpenMappedCapture(path)
		if err != nil {
			t.Fatalf("%s: OpenMappedCapture: %v", name, err)
		}
		t.Cleanup(func() { mc.Close() })
		resident[i], streamed[i] = arm{cp}, arm{mc}
		decodedBytes += int64(cp.Len()) * 24 // six u32 columns per row
		mappedBytes += int64(mc.SizeBytes())
	}

	// One replay drives every model plus a byte-granularity activity
	// collector — the suite evaluation's consumer set.
	replay := func(rep trace.Replayer) error {
		m, err := rep.NewMemory()
		if err != nil {
			return err
		}
		models := pipeline.NewAll()
		consumers := make([]trace.Consumer, 0, len(models)+1)
		for _, pm := range models {
			consumers = append(consumers, pm)
		}
		consumers = append(consumers, activity.NewCollector(1, rc, m))
		return rep.ReplayBlocksOn(ctx, m, rc, consumers...)
	}

	const rounds = 3
	measure := func(arms []arm) time.Duration {
		t.Helper()
		// Warm-up pass: page in the mapping, fill the recoder memos.
		for _, a := range arms {
			if err := replay(a.rep); err != nil {
				t.Fatal(err)
			}
		}
		best := time.Duration(0)
		for r := 0; r < rounds; r++ {
			start := time.Now()
			for _, a := range arms {
				if err := replay(a.rep); err != nil {
					t.Fatal(err)
				}
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		return best
	}

	batch := measure(resident)
	streaming := measure(streamed)
	t.Logf("suite replay best-of-%d: batch %v, streaming %v (%.2fx of batch); decoded %d B, mapped resident %d B (%.1f%%)",
		rounds, batch, streaming, float64(streaming)/float64(batch),
		decodedBytes, mappedBytes, 100*float64(mappedBytes)/float64(decodedBytes))

	if streaming*10 >= batch*13 {
		t.Errorf("streaming replay too slow: %v vs batch %v (gate 1.3x)", streaming, batch)
	}
	if mappedBytes*4 >= decodedBytes {
		t.Errorf("mapped tier holds %d resident bytes, decoded columns are %d: want < 1/4 (O(frame), not O(trace))",
			mappedBytes, decodedBytes)
	}

	if out := os.Getenv("BENCH_REPLAY_OUT"); out != "" {
		doc, err := json.MarshalIndent(map[string]interface{}{
			"benches":             benches,
			"rounds":              rounds,
			"batchNs":             batch.Nanoseconds(),
			"streamingNs":         streaming.Nanoseconds(),
			"streamingVsBatch":    float64(streaming) / float64(batch),
			"decodedColumnBytes":  decodedBytes,
			"mappedResidentBytes": mappedBytes,
		}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(doc, '\n'), 0o644); err != nil {
			t.Fatalf("writing %s: %v", out, err)
		}
		t.Logf("wrote %s", out)
	}
}
