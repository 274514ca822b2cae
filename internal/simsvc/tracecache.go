package simsvc

import (
	"context"
	"errors"
	"os"
	"sync"

	"repro/internal/activity"
	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/icomp"
	"repro/internal/lru"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// DefaultTraceCacheMB is the captured-trace budget when Config.TraceCacheMB
// is zero: enough for the whole served suite (~90 MB at 24 B/instruction)
// with headroom.
const DefaultTraceCacheMB = 256

// traceEntry is one benchmark's captured trace as held by the trace cache,
// with a per-granularity memo of the activity-collector counts. The
// collectors are model-independent (they see the same replayed events for
// every pipeline model), so a sweep over N models pays for one activity
// replay per granularity instead of N.
//
// The replay engine comes in two residency tiers behind trace.Replayer:
// a fully decoded *trace.Capture (resident tier, ~24 B/instruction) or a
// *trace.MappedCapture streaming frames out of a mapped SIGCAP02 spill
// file (mapped tier, ~index + one frame buffer against the budget; the
// file pages are clean, read-only, and shared with every co-located shard
// through the OS page cache). mapped is non-nil exactly when rep is the
// mapped tier, so eviction knows to unmap instead of spill.
type traceEntry struct {
	rep    trace.Replayer
	mapped *trace.MappedCapture // non-nil iff rep streams from a mapped file

	act [3]actMemo // indexed by granularity (1 = byte, 2 = halfword)
}

// close releases a mapped entry's handle (deferred past in-flight replays
// by its refcount); resident entries have nothing to release.
func (e *traceEntry) close() {
	if e.mapped != nil {
		e.mapped.Close()
	}
}

// actMemo caches one granularity's activity counts. Like experiments.memo
// it does NOT latch failures: a cancelled first replay leaves it empty so
// the next request retries instead of inheriting the error forever.
type actMemo struct {
	mu     sync.Mutex
	done   bool
	counts activity.Counts
}

// activityCounts replays the trace through an activity collector at gran,
// memoized per entry. Concurrent callers for the same granularity serialize
// on the memo; whoever completes first fills it for everyone after.
func (e *traceEntry) activityCounts(ctx context.Context, gran int, rc *icomp.Recoder) (activity.Counts, error) {
	m := &e.act[gran]
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.done {
		return m.counts, nil
	}
	mem, err := e.rep.NewMemory()
	if err != nil {
		return activity.Counts{}, err
	}
	col := activity.NewCollector(gran, rc, mem)
	if err := e.rep.ReplayBlocksOn(ctx, mem, rc, col); err != nil {
		return activity.Counts{}, err
	}
	m.counts, m.done = col.Counts(), true
	return m.counts, nil
}

// traceCache is the LRU of captured traces, keyed by benchmark name and
// bounded by a byte budget rather than a count: entries are accounted at
// their capture's SizeBytes. The trace-specific admission policy lives here,
// around the shared lru.Cache: a capture larger than the whole budget is
// never cached (the request that built it still uses it), and an entry
// that outgrows the budget on its own is dropped rather than kept alone.
type traceCache struct {
	*lru.Cache[*traceEntry]
	maxBytes int64
	metrics  *Metrics

	// mu serializes writes, so the traceCacheBytes gauge stored after each
	// one is the total that write left, never a stale one.
	mu sync.Mutex
}

func newTraceCache(maxBytes int64, m *Metrics) *traceCache {
	return &traceCache{Cache: lru.New[*traceEntry](0, maxBytes), maxBytes: maxBytes, metrics: m}
}

// add stores e under key, evicting least-recently-used captures until the
// byte budget holds. It returns the evicted entries so the caller can count
// them and demote their captures to the trace dir, plus the entry this one
// displaced (whose mapped handle, if any, must be closed) — I/O and unmaps
// happen outside the cache.
func (c *traceCache) add(key string, e *traceEntry) (evicted []lru.Entry[*traceEntry], replaced *traceEntry) {
	n := int64(e.rep.SizeBytes())
	if n > c.maxBytes {
		return nil, nil // larger than the whole budget: never cached
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	evicted, replaced = c.Add(key, e, n)
	c.metrics.traceCacheBytes.Store(c.Bytes())
	return evicted, replaced
}

// refresh re-accounts key's entry from its capture's current SizeBytes.
// Replays grow a capture after admission — each new recoder profile adds a
// fetch-size memo — so without a refresh the LRU's byte ledger drifts below
// reality and the budget silently overshoots. A grown entry is treated as
// just-used; if the growth pushes the cache over budget, LRU entries are
// evicted and returned for demotion, the grown entry itself included when
// it alone no longer fits.
func (c *traceCache) refresh(key string) []lru.Entry[*traceEntry] {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.Peek(key)
	if !ok {
		return nil
	}
	n := int64(e.rep.SizeBytes())
	evicted := c.Resize(key, n)
	if n > c.maxBytes {
		if self, ok := c.Remove(key); ok {
			evicted = append(evicted, self)
		}
	}
	c.metrics.traceCacheBytes.Store(c.Bytes())
	return evicted
}

// TraceCacheLen returns the number of cached captures (0 when disabled).
func (s *Service) TraceCacheLen() int {
	if s.traces == nil {
		return 0
	}
	return s.traces.Len()
}

// TraceCacheBytes returns the cached captures' accounted bytes.
func (s *Service) TraceCacheBytes() int64 {
	if s.traces == nil {
		return 0
	}
	return s.traces.Bytes()
}

// TraceMappedEntries returns how many cached captures are on the mapped
// (streaming SIGCAP02) residency tier rather than fully decoded.
func (s *Service) TraceMappedEntries() int {
	n := 0
	if s.traces != nil {
		for _, e := range s.traces.Values() {
			if e.mapped != nil {
				n++
			}
		}
	}
	return n
}

// captureFor returns b's captured trace, from the trace cache when
// possible. With the trace cache disabled it returns a transient entry
// over the live interpreter instead, cached nowhere; concurrent misses for the same benchmark share one interpreter
// run via the capture singleflight. With a trace dir configured, a miss
// tries the persisted capture before re-interpreting, and a fresh capture
// is persisted for future shards/restarts. The result-cache fault points
// guard the trace cache's seams the same way they guard the result LRU: an
// injected get failure degrades to a miss (re-capture), an injected put
// failure skips caching — neither fails the request.
func (s *Service) captureFor(ctx context.Context, b bench.Benchmark) (*traceEntry, error) {
	if s.traces == nil {
		return &traceEntry{rep: trace.NewLive(b)}, nil
	}
	if e, ok := s.traceGet(ctx, b.Name); ok {
		s.metrics.traceCacheHits.Add(1)
		return e, nil
	}
	s.metrics.traceCacheMisses.Add(1)
	e, shared, err := s.tflight.Do(ctx, b.Name, func() (*traceEntry, error) {
		e := s.loadSpilled(b)
		if e == nil {
			cp, err := trace.CaptureRun(ctx, b)
			if err != nil {
				return nil, err
			}
			s.metrics.captures.Add(1)
			s.spillCapture(cp, true)
			e = &traceEntry{rep: cp}
		}
		s.tracePut(ctx, b.Name, e)
		return e, nil
	})
	if shared && err == nil {
		s.metrics.flightShared.Add(1)
	}
	return e, err
}

// loadSpilled tries the trace dir for a previously persisted capture of b.
// Spills are mapped, not decoded: the warm start costs the footer index
// and a frame buffer, the columns stream lazily at replay time, and
// co-located shards share the clean file pages through the OS page cache.
// With TraceNoMmap the file is decoded eagerly instead. Any failure — no
// dir, no file, corruption, another format, wrong benchmark — is a plain
// miss; the caller re-interprets and rewrites the file.
func (s *Service) loadSpilled(b bench.Benchmark) *traceEntry {
	if s.traceDir == "" {
		return nil
	}
	rep, err := trace.LoadCaptureFile(s.traceDir, b, !s.traceNoMmap)
	if err != nil {
		return nil
	}
	s.metrics.traceSpillLoads.Add(1)
	e := &traceEntry{rep: rep}
	if mc, ok := rep.(*trace.MappedCapture); ok {
		s.metrics.traceMapLoads.Add(1)
		e.mapped = mc
	}
	return e
}

// spillCapture persists cp to the trace dir. Unless overwrite is set, an
// existing file is kept: captures are deterministic per benchmark, so a
// file that loads is as good as ours. The miss path overwrites, because
// it only interprets after the file failed to load — keeping that file
// would make every cold start re-interpret the benchmark. Write errors are
// swallowed (the dir is an optimization, never a dependency).
func (s *Service) spillCapture(cp *trace.Capture, overwrite bool) {
	if s.traceDir == "" {
		return
	}
	if !overwrite {
		if _, err := os.Stat(trace.CaptureFilePath(s.traceDir, cp.Bench().Name)); err == nil {
			return
		}
	}
	if _, err := trace.WriteCaptureFile(s.traceDir, cp); err != nil {
		return
	}
	s.metrics.traceSpills.Add(1)
}

// spillEvicted demotes evicted entries to the trace dir and counts the
// evictions. Resident captures are persisted (if not already on disk);
// mapped entries just close — their bytes ARE the disk file, so eviction
// is an unmap, not a write. In-flight replays keep the mapping alive via
// its refcount and finish normally; the next request for the benchmark
// re-maps. Runs outside the cache lock.
func (s *Service) spillEvicted(evicted []lru.Entry[*traceEntry]) {
	s.metrics.traceCacheEvictions.Add(uint64(len(evicted)))
	for _, ev := range evicted {
		if ev.Value.mapped != nil {
			ev.Value.close()
			continue
		}
		s.spillCapture(ev.Value.rep.(*trace.Capture), false)
	}
}

// traceRefresh re-accounts key's cache entry after replays may have grown
// its capture's memos (each new recoder profile adds a per-slot fetch-size
// table), evicting and demoting if the growth breaks the budget.
func (s *Service) traceRefresh(key string) {
	if s.traces == nil {
		return
	}
	s.spillEvicted(s.traces.refresh(key))
}

func (s *Service) traceGet(ctx context.Context, key string) (*traceEntry, bool) {
	if err := s.faults.Fire(ctx, faultinject.PointCacheGet); err != nil {
		return nil, false
	}
	return s.traces.Get(key)
}

func (s *Service) tracePut(ctx context.Context, key string, e *traceEntry) {
	if err := s.faults.Fire(ctx, faultinject.PointCachePut); err != nil {
		return
	}
	evicted, replaced := s.traces.add(key, e)
	if replaced != nil {
		// Displaced under racing misses: release the loser's mapping (its
		// refcount defers the unmap past any replay still using it).
		replaced.close()
	}
	s.spillEvicted(evicted)
}

// executeReplay runs one request: it resolves the benchmark's trace source
// (a cached capture shared across concurrent requests and models, or the
// live interpreter when the trace cache is off) and replays it. Responses
// are bit-identical whatever the source. A mapped
// entry can be evicted — and its handle closed — between our cache hit and
// the replay; that loses nothing but the mapping, so it is retried exactly
// once: the retry's captureFor misses and re-maps (or re-captures) fresh.
func (s *Service) executeReplay(ctx context.Context, req Request, rc *icomp.Recoder, b bench.Benchmark) (*Response, error) {
	resp, err := s.replayOnce(ctx, req, rc, b)
	if err != nil && errors.Is(err, trace.ErrMappedClosed) {
		resp, err = s.replayOnce(ctx, req, rc, b)
	}
	return resp, err
}

func (s *Service) replayOnce(ctx context.Context, req Request, rc *icomp.Recoder, b bench.Benchmark) (*Response, error) {
	e, err := s.captureFor(ctx, b)
	if err != nil {
		return nil, err
	}

	if req.Model == "" {
		br, err := experiments.RunBenchReplay(ctx, e.rep, rc, nil)
		if err != nil {
			return nil, err
		}
		s.traceRefresh(b.Name)
		full := experiments.EncodeBench(br)
		return &Response{
			Bench: b.Name,
			Insts: br.Insts,
			Full:  &full,
		}, nil
	}

	m := pipeline.New(req.Model)
	var counts activity.Counts
	if _, live := e.rep.(*trace.Live); live {
		// Nothing is kept between live passes, so interpret once with the
		// model and the collector riding the same pass.
		mem, err := e.rep.NewMemory()
		if err != nil {
			return nil, err
		}
		col := activity.NewCollector(req.Gran, rc, mem)
		if err := e.rep.ReplayBlocksOn(ctx, mem, rc, m, col); err != nil {
			return nil, err
		}
		counts = col.Counts()
	} else {
		// Pipeline models never read program memory, so the model replay
		// skips the shadow image entirely; the activity counts come from
		// the per-entry memo (one memory-backed replay per granularity,
		// shared by every model of a sweep).
		if err := e.rep.ReplayBlocks(ctx, rc, m); err != nil {
			return nil, err
		}
		if counts, err = e.activityCounts(ctx, req.Gran, rc); err != nil {
			return nil, err
		}
	}
	// Replaying under a new recoder profile grows the capture's memo; keep
	// the byte-budgeted LRU's ledger honest.
	s.traceRefresh(b.Name)
	r := m.Result()
	stalls := make(map[string]uint64, len(r.Stalls))
	for k, v := range r.Stalls {
		stalls[string(k)] = v
	}
	return &Response{
		Bench:       b.Name,
		Model:       req.Model,
		Granularity: req.Gran,
		Insts:       r.Insts,
		Cycles:      r.Cycles,
		CPI:         r.CPI(),
		Stalls:      stalls,
		Activity:    experiments.SavingMap(counts),
	}, nil
}
