package pipeline

import (
	"context"
	"os"
	"testing"
	"time"

	"repro/internal/icomp"
	"repro/internal/trace"
)

// TestBatchReplayBeatsScalar is the CI performance gate for the column-block
// kernels: replaying the same captures through ConsumeBlock (ReplayBlocks,
// miss stream warm) must be decisively faster than through the
// event-at-a-time Consume path (ReplayOn). Wall-clock assertions are too
// noisy for every developer run, so the test only arms itself under
// SIGPERF_SMOKE=1 (set by the CI benchmark-smoke step). The margin is 1.5x
// against a measured several-fold gap so scheduler noise cannot flake it; a
// real regression — the kernels falling back to the scalar path — lands at
// 1.0x and fails clearly.
func TestBatchReplayBeatsScalar(t *testing.T) {
	if os.Getenv("SIGPERF_SMOKE") == "" {
		t.Skip("set SIGPERF_SMOKE=1 to run the wall-clock replay smoke (CI does)")
	}
	ctx := context.Background()
	rc := icomp.MustNewRecoder(icomp.DefaultTopFuncts())
	models := []string{
		NameBaseline32, NameByteSerial, NameParallelCompressed,
		NameByteFetch4, NameDualCompress4,
	}
	var caps []*trace.Capture
	for _, n := range batchTestBenches {
		caps = append(caps, captureBench(t, n))
	}

	sweep := func(scalar bool) {
		t.Helper()
		for _, cp := range caps {
			for _, name := range models {
				m := New(name)
				var err error
				if scalar {
					err = cp.ReplayOn(ctx, nil, rc, m)
				} else {
					err = cp.ReplayBlocks(ctx, rc, m)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	const rounds = 3
	measure := func(scalar bool) time.Duration {
		t.Helper()
		sweep(scalar) // warm-up: fetch-size memos and the miss stream
		best := time.Duration(0)
		for r := 0; r < rounds; r++ {
			start := time.Now()
			sweep(scalar)
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		return best
	}

	scalar := measure(true)
	batch := measure(false)
	t.Logf("%d benches × %d models, best of %d: scalar %v, batch %v (%.2fx)",
		len(caps), len(models), rounds, scalar, batch, float64(scalar)/float64(batch))
	if batch*3/2 >= scalar {
		t.Errorf("batch replay is not decisively faster: scalar %v vs batch %v (want ≥1.5x)", scalar, batch)
	}
}
