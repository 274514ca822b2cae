package simsvc

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/pipeline"
)

// syntheticEntry builds a cache entry of a given accounted size; the cache
// itself never dereferences cap, so nil is fine for unit tests.
func syntheticEntry(bytes int64) *traceEntry { return &traceEntry{bytes: bytes} }

// The byte-accounted LRU in isolation: admission, recency, update-in-place,
// eviction order, and the oversized-entry reject.
func TestTraceCacheLRUUnit(t *testing.T) {
	var m Metrics
	c := newTraceCache(100, &m)
	add := func(key string, e *traceEntry) []*traceCacheEntry {
		t.Helper()
		ev, replaced := c.add(key, e)
		if _, existed := c.items[key]; replaced != nil && !existed {
			t.Fatalf("add %s reported a replaced entry without holding the key", key)
		}
		return ev
	}

	if n := len(add("a", syntheticEntry(40))); n != 0 {
		t.Fatalf("add a evicted %d", n)
	}
	if n := len(add("b", syntheticEntry(40))); n != 0 {
		t.Fatalf("add b evicted %d", n)
	}
	if got := c.bytesUsed(); got != 80 {
		t.Fatalf("bytes = %d, want 80", got)
	}

	// Touch a so b becomes least recently used, then overflow: b must go.
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	ev := add("c", syntheticEntry(40))
	if len(ev) != 1 || ev[0].key != "b" {
		t.Fatalf("add c evicted %v, want [b]", ev)
	}
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived eviction despite being LRU")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a (recently used) was evicted")
	}
	if got := c.bytesUsed(); got != 80 {
		t.Fatalf("bytes after eviction = %d, want 80", got)
	}
	if got := m.traceCacheBytes.Load(); got != 80 {
		t.Fatalf("bytes gauge = %d, want 80", got)
	}

	// Re-adding an existing key replaces in place, re-accounts, and hands
	// the displaced entry back so its mapping (if any) can be released.
	olderA, _ := c.get("a")
	ev2, replaced := c.add("a", syntheticEntry(60))
	if len(ev2) != 0 {
		t.Fatalf("update a evicted %d", len(ev2))
	}
	if replaced != olderA {
		t.Fatalf("update a returned replaced=%p, want the displaced entry %p", replaced, olderA)
	}
	if got := c.bytesUsed(); got != 100 {
		t.Fatalf("bytes after update = %d, want 100", got)
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}

	// An entry larger than the whole budget is never admitted.
	if n := len(add("huge", syntheticEntry(101))); n != 0 {
		t.Fatalf("oversized add evicted %d", n)
	}
	if _, ok := c.get("huge"); ok {
		t.Fatal("oversized entry was cached")
	}

	// A single entry that exactly fits evicts everything else.
	if n := len(add("exact", syntheticEntry(100))); n != 2 {
		t.Fatalf("exact-fit add evicted %d, want 2", n)
	}
	if got := c.bytesUsed(); got != 100 || c.len() != 1 {
		t.Fatalf("after exact fit: %d bytes, %d entries", got, c.len())
	}
}

// Service-level memory accounting: a 2 MB budget holds one ~1.3-1.5 MB
// capture at a time, so touching a second benchmark evicts the first and the
// eviction/byte metrics track it.
func TestTraceCacheEvictionUnderBudget(t *testing.T) {
	s := testService(t, Config{Workers: 2, TraceCacheMB: 2}, "dijkstra", "g711dec")
	ctx := context.Background()

	if _, err := s.Simulate(ctx, Request{Bench: "dijkstra", Model: pipeline.NameBaseline32}); err != nil {
		t.Fatal(err)
	}
	if s.TraceCacheLen() != 1 {
		t.Fatalf("after first bench: %d cached traces, want 1", s.TraceCacheLen())
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
	if m.TraceCacheEvict != 1 {
		t.Fatalf("evictions = %d, want 1", m.TraceCacheEvict)
	}
	if got := s.TraceCacheBytes(); got > 2<<20 || got != m.TraceCacheBytes {
		t.Fatalf("accounted bytes %d (gauge %d) exceed the 2 MB budget", got, m.TraceCacheBytes)
	}

	// Returning to the evicted benchmark is a miss: it re-captures.
	if _, err := s.Simulate(ctx, Request{Bench: "dijkstra", Model: pipeline.NameByteSerial}); err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics().Snapshot(); m.Captures != 3 {
		t.Fatalf("captures = %d, want 3 (dijkstra twice, g711dec once)", m.Captures)
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

// The acceptance criterion: suite output must be byte-identical with the
// trace cache enabled (capture/replay) versus disabled (live reference
// path).
func TestSuiteByteIdenticalReplayVsLive(t *testing.T) {
	benches := []string{"dijkstra", "g711dec", "rawdaudio"}
	replaySvc := testService(t, Config{Workers: 4}, benches...)
	liveSvc := testService(t, Config{Workers: 4, TraceCacheMB: -1}, benches...)
	if replaySvc.traces == nil || liveSvc.traces != nil {
		t.Fatal("trace-cache enablement wiring is wrong")
	}
	ctx := context.Background()

	replayResp, err := replaySvc.Suite(ctx)
	if err != nil {
		t.Fatal(err)
	}
	liveResp, err := liveSvc.Suite(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if replayResp.Insts != liveResp.Insts {
		t.Fatalf("insts: replay %d vs live %d", replayResp.Insts, liveResp.Insts)
	}
	replayJSON, err := json.Marshal(replayResp.Suite)
	if err != nil {
		t.Fatal(err)
	}
	liveJSON, err := json.Marshal(liveResp.Suite)
	if err != nil {
		t.Fatal(err)
	}
	if string(replayJSON) != string(liveJSON) {
		t.Fatalf("suite JSON differs between replay and live paths:\nreplay: %.400s\nlive:   %.400s", replayJSON, liveJSON)
	}
	if m := replaySvc.Metrics().Snapshot(); m.Captures != uint64(len(benches)) {
		t.Fatalf("replay suite captured %d traces, want %d", m.Captures, len(benches))
	}
}

// Per-job sweep responses must also be byte-identical between the replay and
// live paths, at both granularities.
func TestSweepByteIdenticalReplayVsLive(t *testing.T) {
	benches := []string{"dijkstra", "g711dec"}
	models := []string{pipeline.NameBaseline32, pipeline.NameByteSerial, pipeline.NameParallelCompressed}
	ctx := context.Background()

	collect := func(s *Service, gran int) map[string]string {
		t.Helper()
		out := make(map[string]string)
		_, err := s.Sweep(ctx, gran, benches, models, func(r *Response) error {
			if r.Error != "" {
				return fmt.Errorf("job %s/%s: %s", r.Bench, r.Model, r.Error)
			}
			// Normalize the non-deterministic envelope fields; everything
			// else must match bit for bit.
			c := *r
			c.ElapsedMS = 0
			c.Cached = false
			j, err := json.Marshal(&c)
			if err != nil {
				return err
			}
			out[r.Bench+"|"+r.Model] = string(j)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	for _, gran := range []int{1, 2} {
		replaySvc := testService(t, Config{Workers: 4}, benches...)
		liveSvc := testService(t, Config{Workers: 4, TraceCacheMB: -1}, benches...)
		replayJobs := collect(replaySvc, gran)
		liveJobs := collect(liveSvc, gran)
		if len(replayJobs) != len(benches)*len(models) {
			t.Fatalf("gran %d: %d jobs, want %d", gran, len(replayJobs), len(benches)*len(models))
		}
		for k, rj := range replayJobs {
			if lj, ok := liveJobs[k]; !ok || lj != rj {
				t.Fatalf("gran %d, job %s differs:\nreplay: %s\nlive:   %s", gran, k, rj, lj)
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
	clean := testService(t, Config{Workers: 2, TraceCacheMB: -1})
	ctx := context.Background()

	req := Request{Bench: "g711dec", Model: pipeline.NameByteSerial}
	want, err := clean.Simulate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := s.Simulate(ctx, Request{Bench: "g711dec", Model: pipeline.NameByteSerial, Gran: 0})
		if err != nil {
			t.Fatalf("request %d under cache faults: %v", i, err)
		}
		if got.CPI != want.CPI || got.Cycles != want.Cycles || got.Insts != want.Insts {
			t.Fatalf("request %d diverged under cache faults: %+v vs %+v", i, got, want)
		}
	}
	// Puts were all skipped, so nothing was ever cached...
	if s.TraceCacheLen() != 0 {
		t.Fatalf("cached traces = %d, want 0 (every put was injected away)", s.TraceCacheLen())
	}
	// ...but the result cache also dropped its puts, so each request
	// re-executed and re-captured: degraded, never wrong.
	if m := s.Metrics().Snapshot(); m.Captures != 3 || m.Executions != 3 {
		t.Fatalf("captures = %d, executions = %d, want 3/3", m.Captures, m.Executions)
	}
}
