package simsvc

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"repro/internal/activity"
	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/icomp"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// sizedRep is a replayer that only reports a size: the trace cache reads
// nothing else from an entry.
type sizedRep struct {
	trace.Replayer
	n int
}

func (r sizedRep) SizeBytes() int { return r.n }

// syntheticEntry builds a cache entry of a given accounted size.
func syntheticEntry(bytes int) *traceEntry { return &traceEntry{rep: sizedRep{n: bytes}} }

// The trace cache's own policy around lru.Cache (whose recency and
// eviction order internal/lru tests): the displaced entry handed back for
// closing, the oversized-entry refusal, an exact fit evicting everything
// else, and the bytes gauge after every write.
func TestTraceCacheLRUUnit(t *testing.T) {
	var m Metrics
	c := newTraceCache(100, &m)
	accounted := func(want int64) {
		t.Helper()
		if got, gauge := c.Bytes(), m.traceCacheBytes.Load(); got != want || gauge != want {
			t.Fatalf("bytes = %d (gauge %d), want %d", got, gauge, want)
		}
	}

	for _, k := range []string{"a", "b"} {
		if ev, replaced := c.add(k, syntheticEntry(40)); len(ev) != 0 || replaced != nil {
			t.Fatalf("add %s evicted %d, replaced %p", k, len(ev), replaced)
		}
	}
	accounted(80)

	// Re-adding an existing key replaces in place, re-accounts, and hands
	// the displaced entry back so its mapping (if any) can be released.
	olderA, _ := c.Peek("a")
	newerA := syntheticEntry(60)
	ev, replaced := c.add("a", newerA)
	if len(ev) != 0 {
		t.Fatalf("update a evicted %d", len(ev))
	}
	if replaced != olderA {
		t.Fatalf("update a returned replaced=%p, want the displaced entry %p", replaced, olderA)
	}
	accounted(100)
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}

	// An entry larger than the whole budget is never admitted, neither as a
	// new key nor over a resident one.
	if ev, replaced := c.add("huge", syntheticEntry(101)); len(ev) != 0 || replaced != nil {
		t.Fatalf("oversized add evicted %d, replaced %p", len(ev), replaced)
	}
	if _, ok := c.Get("huge"); ok {
		t.Fatal("oversized entry was cached")
	}
	if ev, replaced := c.add("a", syntheticEntry(101)); len(ev) != 0 || replaced != nil {
		t.Fatalf("oversized update evicted %d, replaced %p", len(ev), replaced)
	}
	if got, _ := c.Get("a"); got != newerA {
		t.Fatal("oversized update displaced the resident entry")
	}
	accounted(100)

	// A single entry that exactly fits evicts everything else.
	if ev, _ := c.add("exact", syntheticEntry(100)); len(ev) != 2 {
		t.Fatalf("exact-fit add evicted %d, want 2", len(ev))
	}
	accounted(100)
	if c.Len() != 1 {
		t.Fatalf("after exact fit: %d entries", c.Len())
	}
}

// Service-level memory accounting: a 2 MB budget holds one ~1.3-1.5 MB
// capture at a time, so touching a second benchmark evicts the first and the
// eviction/byte metrics track it. One worker makes the recoder derivation
// capture the served suite in order, so every count is exact: the first
// request captures dijkstra and g711dec for the recoder (g711dec evicts
// dijkstra), then re-captures dijkstra for its own replay (evicting
// g711dec).
func TestTraceCacheEvictionUnderBudget(t *testing.T) {
	s := testService(t, Config{Workers: 1, TraceCacheMB: 2}, "dijkstra", "g711dec")
	ctx := context.Background()

	if _, err := s.Simulate(ctx, Request{Bench: "dijkstra", Model: pipeline.NameBaseline32}); err != nil {
		t.Fatal(err)
	}
	if s.TraceCacheLen() != 1 {
		t.Fatalf("after first bench: %d cached traces, want 1", s.TraceCacheLen())
	}
	if m := s.Metrics().Snapshot(); m.Captures != 3 || m.TraceCacheEvict != 2 {
		t.Fatalf("after first bench: captures = %d, evictions = %d, want 3/2 (both for the recoder, dijkstra again)",
			m.Captures, m.TraceCacheEvict)
	}
	firstBytes := s.TraceCacheBytes()
	if firstBytes <= 0 || firstBytes > 2<<20 {
		t.Fatalf("first capture accounted at %d bytes", firstBytes)
	}

	if _, err := s.Simulate(ctx, Request{Bench: "g711dec", Model: pipeline.NameBaseline32}); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics().Snapshot()
	if s.TraceCacheLen() != 1 {
		t.Fatalf("after second bench: %d cached traces, want 1 (budget fits one)", s.TraceCacheLen())
	}
	if m.TraceCacheEvict != 3 {
		t.Fatalf("evictions = %d, want 3", m.TraceCacheEvict)
	}
	if got := s.TraceCacheBytes(); got > 2<<20 || got != m.TraceCacheBytes {
		t.Fatalf("accounted bytes %d (gauge %d) exceed the 2 MB budget", got, m.TraceCacheBytes)
	}

	// Returning to the evicted benchmark is a miss: it re-captures.
	if _, err := s.Simulate(ctx, Request{Bench: "dijkstra", Model: pipeline.NameByteSerial}); err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics().Snapshot(); m.Captures != 5 {
		t.Fatalf("captures = %d, want 5 (dijkstra three times, g711dec twice)", m.Captures)
	}
}

// Concurrent requests for different models of one benchmark must share a
// single interpreter run: the capture singleflight (or the trace cache, if
// the leader finishes first) dedups them, while the per-model simulations
// still execute separately.
func TestCaptureSingleflightDedup(t *testing.T) {
	s := testService(t, Config{Workers: 4})
	models := []string{
		pipeline.NameBaseline32, pipeline.NameByteSerial,
		pipeline.NameHalfwordSerial, pipeline.NameParallelCompressed,
	}

	start := make(chan struct{})
	errs := make([]error, len(models))
	var wg sync.WaitGroup
	for i, mn := range models {
		wg.Add(1)
		go func(i int, mn string) {
			defer wg.Done()
			<-start
			_, errs[i] = s.Simulate(context.Background(), Request{Bench: "g711dec", Model: mn})
		}(i, mn)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("model %s: %v", models[i], err)
		}
	}

	m := s.Metrics().Snapshot()
	if m.Captures != 1 {
		t.Fatalf("captures = %d, want exactly 1 for %d concurrent models", m.Captures, len(models))
	}
	if m.Executions != uint64(len(models)) {
		t.Fatalf("executions = %d, want %d (distinct models never share results)", m.Executions, len(models))
	}
	if s.TraceCacheLen() != 1 {
		t.Fatalf("cached traces = %d, want 1", s.TraceCacheLen())
	}
}

// reference computes answers outside the service, as the independent side
// of the byte-identity checks: fresh captures of the served benchmarks
// under the recoder profiled over them, as the service profiles its own.
type reference struct {
	rc   *icomp.Recoder
	caps map[string]*trace.Capture
}

func newReference(t *testing.T, served ...string) *reference {
	t.Helper()
	var suite []bench.Benchmark
	ref := &reference{caps: make(map[string]*trace.Capture)}
	for _, name := range served {
		b := mustTestBench(t, name)
		suite = append(suite, b)
		cp, err := trace.CaptureRun(context.Background(), b)
		if err != nil {
			t.Fatal(err)
		}
		ref.caps[name] = cp
	}
	rc, _, err := trace.SuiteRecoder(suite)
	if err != nil {
		t.Fatal(err)
	}
	ref.rc = rc
	return ref
}

// response replays req's capture through a new model and activity
// collector and returns the normalized JSON a service answer must equal.
func (ref *reference) response(t *testing.T, req Request) string {
	t.Helper()
	cp := ref.caps[req.Bench]
	image, err := cp.NewMemory()
	if err != nil {
		t.Fatal(err)
	}
	gran := req.Gran
	if gran == 0 {
		gran = 1
	}
	m := pipeline.New(req.Model)
	col := activity.NewCollector(gran, ref.rc, image)
	if err := cp.ReplayBlocksOn(context.Background(), image, ref.rc, m, col); err != nil {
		t.Fatal(err)
	}
	r := m.Result()
	stalls := make(map[string]uint64, len(r.Stalls))
	for k, v := range r.Stalls {
		stalls[string(k)] = v
	}
	return normalized(t, &Response{
		Bench: req.Bench, Model: req.Model, Granularity: gran,
		Insts: r.Insts, Cycles: r.Cycles, CPI: r.CPI(), Stalls: stalls,
		Activity: experiments.SavingMap(col.Counts()),
	})
}

// normalized marshals r with the non-deterministic envelope fields zeroed;
// everything else must match bit for bit.
func normalized(t *testing.T, r *Response) string {
	t.Helper()
	c := *r
	c.ElapsedMS = 0
	c.Cached = false
	j, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return string(j)
}

// The acceptance criterion: the service's suite (captured once per
// benchmark, replayed from its trace cache) must be byte-identical to
// experiments.RunSuite over the same benchmarks, outside the service. A
// negative budget selects the default: no value turns capture off.
func TestSuiteByteIdenticalReplayVsLive(t *testing.T) {
	benches := []string{"dijkstra", "g711dec", "rawdaudio"}
	replaySvc := testService(t, Config{Workers: 4, TraceCacheMB: -1}, benches...)
	if replaySvc.traces.maxBytes != DefaultTraceCacheMB<<20 {
		t.Fatalf("TraceCacheMB -1 budgets %d bytes, want the default %d", replaySvc.traces.maxBytes, DefaultTraceCacheMB<<20)
	}
	ctx := context.Background()

	replayResp, err := replaySvc.Suite(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var suite []bench.Benchmark
	for _, name := range benches {
		suite = append(suite, mustTestBench(t, name))
	}
	want, err := experiments.RunSuite(ctx, suite, 1)
	if err != nil {
		t.Fatal(err)
	}
	var wantInsts uint64
	for _, br := range want.Bench {
		wantInsts += br.Insts
	}
	if replayResp.Insts != wantInsts {
		t.Fatalf("insts: service %d vs RunSuite %d", replayResp.Insts, wantInsts)
	}
	replayJSON, err := json.Marshal(replayResp.Suite)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if string(replayJSON) != string(wantJSON) {
		t.Fatalf("suite JSON differs between the service and RunSuite:\nservice:  %.400s\nRunSuite: %.400s", replayJSON, wantJSON)
	}
	if m := replaySvc.Metrics().Snapshot(); m.Captures != uint64(len(benches)) {
		t.Fatalf("replay suite captured %d traces, want %d", m.Captures, len(benches))
	}
}

// Per-job sweep responses must also be byte-identical to the same jobs
// computed outside the service, at both granularities.
func TestSweepByteIdenticalReplayVsLive(t *testing.T) {
	benches := []string{"dijkstra", "g711dec"}
	models := []string{pipeline.NameBaseline32, pipeline.NameByteSerial, pipeline.NameParallelCompressed}
	ctx := context.Background()
	ref := newReference(t, benches...)

	for _, gran := range []int{1, 2} {
		replaySvc := testService(t, Config{Workers: 4}, benches...)
		var jobs []*Response
		_, err := replaySvc.Sweep(ctx, gran, benches, models, func(r *Response) error {
			if r.Error != "" {
				return fmt.Errorf("job %s/%s: %s", r.Bench, r.Model, r.Error)
			}
			jobs = append(jobs, r)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(jobs) != len(benches)*len(models) {
			t.Fatalf("gran %d: %d jobs, want %d", gran, len(jobs), len(benches)*len(models))
		}
		for _, r := range jobs {
			got := normalized(t, r)
			if want := ref.response(t, Request{Bench: r.Bench, Model: r.Model, Gran: gran}); got != want {
				t.Errorf("gran %d, job %s/%s differs:\nservice:   %s\nreference: %s", gran, r.Bench, r.Model, got, want)
			}
		}
		// One capture per benchmark serves every model of the sweep.
		if m := replaySvc.Metrics().Snapshot(); m.Captures != uint64(len(benches)) {
			t.Fatalf("gran %d: captures = %d, want %d", gran, m.Captures, len(benches))
		}
	}
}

// Chaos on the trace-cache seams: injected get/put failures degrade to
// misses and skipped puts — requests keep succeeding with identical results,
// they just re-capture.
func TestTraceCacheChaosDegradesGracefully(t *testing.T) {
	inj := faultinject.MustNew(17,
		faultinject.Rule{Point: faultinject.PointCacheGet, Kind: faultinject.KindError, Prob: 1},
		faultinject.Rule{Point: faultinject.PointCachePut, Kind: faultinject.KindError, Prob: 1},
	)
	s := chaosService(t, Config{Workers: 2}, inj, "g711dec")
	ctx := context.Background()

	req := Request{Bench: "g711dec", Model: pipeline.NameByteSerial}
	want := newReference(t, "g711dec").response(t, req)
	for i := 0; i < 3; i++ {
		got, err := s.Simulate(ctx, req)
		if err != nil {
			t.Fatalf("request %d under cache faults: %v", i, err)
		}
		if normalized(t, got) != want {
			t.Fatalf("request %d diverged under cache faults:\ngot:  %s\nwant: %s", i, normalized(t, got), want)
		}
	}
	// Puts were all skipped, so nothing was ever cached...
	if s.TraceCacheLen() != 0 {
		t.Fatalf("cached traces = %d, want 0 (every put was injected away)", s.TraceCacheLen())
	}
	// ...but the result cache also dropped its puts, so each request
	// re-executed and re-captured, and the first request captured once more
	// to derive the recoder: degraded, never wrong.
	if m := s.Metrics().Snapshot(); m.Captures != 4 || m.Executions != 3 {
		t.Fatalf("captures = %d, executions = %d, want 4/3 (one for the recoder, one per request)", m.Captures, m.Executions)
	}
}
