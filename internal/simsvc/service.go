// Package simsvc is the concurrent simulation service behind cmd/sigserve:
// it wraps the trace/pipeline/activity/experiments layers behind a Service
// that fans (benchmark × model) jobs across a bounded worker pool, caches
// results in an LRU keyed by (bench, model, granularity), deduplicates
// concurrent identical requests through a singleflight group, threads
// request-scoped context cancellation into the trace run loop, and keeps a
// counters/latency metrics registry. It is the seam future scaling work
// (sharding, batching, multi-backend) plugs into.
package simsvc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/icomp"
	"repro/internal/isa"
	"repro/internal/lru"
	"repro/internal/pipeline"
	"repro/internal/trace"
	"repro/internal/workload"
)

// DefaultCacheSize is the LRU capacity when Config.CacheSize is zero.
const DefaultCacheSize = 128

// DefaultQueuedPerWorker scales the default admission bound: MaxQueued
// defaults to this many waiting submissions per pool worker.
const DefaultQueuedPerWorker = 8

// DefaultRetries and DefaultBreakerThreshold are the recommended settings
// for a production daemon (cmd/sigserve uses them as flag defaults). The
// Config zero values stay conservative — no retries, breaker off — so
// embedded and test services opt in explicitly.
const (
	DefaultRetries          = 2
	DefaultBreakerThreshold = 5
)

// retryBackoffBase is the first retry's backoff; each further attempt
// doubles it (capped at retryBackoffMax).
const (
	retryBackoffBase = 2 * time.Millisecond
	retryBackoffMax  = time.Second
)

// Config parameterizes a Service.
type Config struct {
	// Workers bounds concurrent simulations (default GOMAXPROCS).
	Workers int
	// CacheSize is the LRU result-cache capacity (default DefaultCacheSize).
	CacheSize int
	// Timeout bounds each simulation request (0 = no service-side limit).
	Timeout time.Duration
	// Benchmarks restricts the served suite (default bench.All()). The
	// instruction recoder is profiled over exactly this suite.
	Benchmarks []bench.Benchmark
	// MaxQueued bounds submissions waiting for a free worker; beyond it
	// externally-admitted jobs are shed with ErrOverloaded (HTTP 429).
	// 0 = DefaultQueuedPerWorker × Workers; negative = unbounded.
	MaxQueued int
	// Retries is how many times a transient execution failure
	// (faultinject.IsTransient) is re-attempted with exponential backoff.
	Retries int
	// BreakerThreshold opens a per-(bench, model) circuit after that many
	// consecutive failures, quarantining the key for BreakerCooldown.
	// 0 disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is the quarantine length (default
	// DefaultBreakerCooldown).
	BreakerCooldown time.Duration
	// TraceCacheMB budgets the in-memory LRU of captured benchmark traces
	// (the capture-once/replay-many engine, internal/trace). 0 selects
	// DefaultTraceCacheMB; negative disables capture/replay entirely, so
	// every request streams its benchmark through the interpreter
	// (trace.Live: one interpretation per request, holding one block of
	// the trace at a time; bit-identical by construction and by test).
	TraceCacheMB int
	// TraceDir, when set, backs the trace cache with a capture directory
	// (SIGCAP02 files): newly captured traces are persisted there, evicted
	// captures are demoted to disk if not already present, and cache
	// misses try the directory before re-interpreting — so restarted or
	// freshly sharded services start warm from each other's captures.
	// Loads are mapped read-only and replayed by streaming frames, so a
	// warm start costs the footer index (not a full decode) and co-located
	// shards share the file pages through the OS page cache. Ignored when
	// the trace cache is disabled. All directory I/O is best-effort: a
	// missing, corrupt, stale or other-format file degrades to a miss, and
	// the fresh capture replaces it; an unwritable dir degrades to the
	// in-memory path.
	TraceDir string
	// TraceNoMmap disables the mapped residency tier: spilled captures
	// are always eagerly decoded into memory. For platforms or operators
	// that cannot or do not want to mmap the trace dir (e.g. it lives on
	// a network filesystem with unreliable page-fault semantics). The
	// mapped tier also silently degrades to eager decode wherever mmap is
	// unsupported, so this is a policy knob, not a portability requirement.
	TraceNoMmap bool
	// Faults arms deterministic fault injection at the service's seams
	// (nil in production: every hook is then a zero-cost no-op).
	Faults *faultinject.Injector
	// Programs is the untrusted-program intake registry behind POST
	// /v1/program; its accepted programs are servable through simulate,
	// sweep, and suite under their "user:" names. Nil builds one with
	// default budgets (and this Config's Faults), so the intake is always
	// on — the wall, not a flag, is the protection.
	Programs *workload.Registry
	// InstallToken, when set, gates POST /v1/program/install behind a
	// shared fleet secret (X-Install-Token header): replication is
	// fleet-internal traffic and should not ride the public mux
	// unauthenticated. Empty leaves the endpoint open — the registry still
	// re-verifies hashes, rebuilds assembly, clamps budgets, and meters
	// installs, so an open endpoint is contained, just not private.
	InstallToken string
}

// Service executes significance-compression simulations on demand.
type Service struct {
	workers int
	timeout time.Duration
	retries int
	benches []bench.Benchmark
	byName  map[string]bench.Benchmark

	programs     *workload.Registry
	installToken string
	pool         *pool
	cache        *lru.Cache[*Response]
	traces       *traceCache            // nil when capture/replay is disabled
	traceDir     string                 // capture spill directory ("" = in-memory only)
	traceNoMmap  bool                   // true = spill loads always eagerly decode
	tflight      lru.Group[*traceEntry] // one capture per benchmark in flight
	flight       lru.Group[*Response]
	breaker      *breaker
	faults       *faultinject.Injector
	metrics      Metrics
	start        time.Time
	closed       atomic.Bool
	draining     atomic.Bool
	inflight     sync.WaitGroup

	rcOnce   sync.Once
	rc       *icomp.Recoder
	rcFuncts map[isa.Funct]uint64
	rcErr    error

	// failHook injects per-request faults in tests (nil in production).
	failHook func(Request) error
}

// New builds a Service from cfg, applying defaults for zero fields.
func New(cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = DefaultCacheSize
	}
	if cfg.Benchmarks == nil {
		cfg.Benchmarks = bench.All()
	}
	if cfg.MaxQueued == 0 {
		cfg.MaxQueued = DefaultQueuedPerWorker * cfg.Workers
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.Programs == nil {
		// Cannot fail: the only construction error is a spill directory,
		// and the default options have none.
		cfg.Programs, _ = workload.NewRegistry(workload.Options{Faults: cfg.Faults})
	}
	s := &Service{
		workers:      cfg.Workers,
		timeout:      cfg.Timeout,
		retries:      cfg.Retries,
		benches:      cfg.Benchmarks,
		byName:       make(map[string]bench.Benchmark, len(cfg.Benchmarks)),
		programs:     cfg.Programs,
		installToken: cfg.InstallToken,
		cache:        lru.New[*Response](cfg.CacheSize, 0),
		faults:       cfg.Faults,
		start:        time.Now(),
	}
	s.pool = newPool(cfg.Workers, cfg.MaxQueued, &s.metrics, cfg.Faults)
	if cfg.TraceCacheMB >= 0 {
		mb := cfg.TraceCacheMB
		if mb == 0 {
			mb = DefaultTraceCacheMB
		}
		s.traces = newTraceCache(int64(mb)<<20, &s.metrics)
		s.traceDir = cfg.TraceDir
		s.traceNoMmap = cfg.TraceNoMmap
	}
	// A fault at the join seam fails only the joining waiter; the leader's
	// execution (and every other waiter) is untouched.
	s.flight.Join = func(ctx context.Context) error { return s.faults.Fire(ctx, faultinject.PointFlightJoin) }
	s.breaker = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, &s.metrics)
	for _, b := range cfg.Benchmarks {
		s.byName[b.Name] = b
	}
	return s
}

// begin admits one request into the in-flight set; it fails with ErrClosed
// once shutdown has begun.
func (s *Service) begin() error {
	s.inflight.Add(1)
	if s.closed.Load() {
		s.inflight.Done()
		return ErrClosed
	}
	return nil
}

func (s *Service) end() { s.inflight.Done() }

// Close shuts the service down gracefully: new requests are refused with
// ErrClosed, every in-flight request is drained to completion, and only
// then are the pool workers stopped. Safe to call more than once.
func (s *Service) Close() {
	s.draining.Store(true)
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.inflight.Wait()
	s.pool.close()
}

// Drain marks the service as draining without refusing work: /readyz starts
// failing so load balancers (the siggate rotation) stop sending new
// requests, while everything already arriving is still served. Call it
// ahead of Close so the fleet routes around this shard before the final
// refuse-and-wait; Close itself also sets it.
func (s *Service) Drain() { s.draining.Store(true) }

// Draining reports whether a drain (or close) has begun.
func (s *Service) Draining() bool { return s.draining.Load() || s.closed.Load() }

// Readiness is the /readyz payload: whether this shard should receive new
// work, and why not.
type Readiness struct {
	Ready      bool   `json:"ready"`
	Status     string `json:"status"` // "ready" | "draining" | "overloaded"
	QueueDepth int64  `json:"queueDepth"`
	MaxQueued  int64  `json:"maxQueued"` // <=0: unbounded
}

// Readiness reports whether the service can usefully accept new work:
// false while draining/closed, and false while the admission queue is at
// its shed threshold (new externally-admitted work would only be 429ed).
// Liveness (/healthz) is separate and stays true through both.
func (s *Service) Readiness() Readiness {
	r := Readiness{
		QueueDepth: s.metrics.queued.Load(),
		MaxQueued:  s.pool.maxQueued,
	}
	switch {
	case s.Draining():
		r.Status = "draining"
	case r.MaxQueued > 0 && r.QueueDepth >= r.MaxQueued:
		r.Status = "overloaded"
	default:
		r.Ready = true
		r.Status = "ready"
	}
	return r
}

// Workers returns the worker-pool size.
func (s *Service) Workers() int { return s.workers }

// Benchmarks returns the served suite.
func (s *Service) Benchmarks() []bench.Benchmark { return s.benches }

// Models returns the servable pipeline-model names.
func (s *Service) Models() []string { return pipeline.AllNames() }

// Metrics returns the live metrics registry.
func (s *Service) Metrics() *Metrics { return &s.metrics }

// Uptime reports how long the service has been running.
func (s *Service) Uptime() time.Duration { return time.Since(s.start) }

// CacheLen returns the number of cached results.
func (s *Service) CacheLen() int { return s.cache.Len() }

// recoder lazily builds the profile-driven instruction recoder over the
// served suite, once per Service.
func (s *Service) recoder() (*icomp.Recoder, error) {
	rc, _, err := s.recoderProfile()
	return rc, err
}

// recoderProfile is recoder plus the dynamic function-code profile the
// recoding was derived from (the input to the paper's Table 3).
func (s *Service) recoderProfile() (*icomp.Recoder, map[isa.Funct]uint64, error) {
	s.rcOnce.Do(func() {
		s.rc, s.rcFuncts, s.rcErr = trace.SuiteRecoder(s.benches)
	})
	return s.rc, s.rcFuncts, s.rcErr
}

// Request identifies one simulation job.
type Request struct {
	// Bench names the benchmark (see Service.Benchmarks).
	Bench string `json:"bench"`
	// Model names the pipeline model; empty runs the full per-benchmark
	// evaluation (every model and collector, experiments.RunBenchCtx).
	Model string `json:"model,omitempty"`
	// Gran is the activity-collector granularity: 1 = byte (default),
	// 2 = halfword. Ignored (both collected) for full evaluations.
	Gran int `json:"granularity,omitempty"`
}

// key is the cache/singleflight identity of the request.
func (r Request) key() string { return fmt.Sprintf("%s|%s|%d", r.Bench, r.Model, r.Gran) }

// Response is one simulation result. A Response served from the cache or a
// shared singleflight execution carries identical measurement fields
// (ElapsedMS is always the underlying simulation's execution time); only
// Cached is per-serve.
type Response struct {
	Bench       string                    `json:"bench"`
	Model       string                    `json:"model,omitempty"`
	Granularity int                       `json:"granularity,omitempty"`
	Insts       uint64                    `json:"instructions"`
	Cycles      uint64                    `json:"cycles,omitempty"`
	CPI         float64                   `json:"cpi,omitempty"`
	Stalls      map[string]uint64         `json:"stalls,omitempty"`
	Activity    map[string]float64        `json:"activitySaving,omitempty"`
	Full        *experiments.BenchJSON    `json:"full,omitempty"`
	Suite       *experiments.JSONResults  `json:"suite,omitempty"`   // /v1/suite only
	Partial     *experiments.PartialSuite `json:"partial,omitempty"` // /v1/partial only (cluster fan-in)
	Cached      bool                      `json:"cached"`
	ElapsedMS   float64                   `json:"elapsedMillis"`
	Error       string                    `json:"error,omitempty"` // sweep stream only
}

// InvalidRequestError reports a malformed or unknown-entity request; the
// HTTP layer maps it to 400.
type InvalidRequestError struct{ Reason string }

func (e *InvalidRequestError) Error() string { return "simsvc: " + e.Reason }

func invalidf(format string, args ...interface{}) error {
	return &InvalidRequestError{Reason: fmt.Sprintf(format, args...)}
}

// benchFor resolves a benchmark name: the built-in suite first, then the
// user-program registry for "user:"-namespaced names. Any other unknown
// name is a typed InvalidRequestError — user programs cannot collide with
// (or shadow) built-ins because their names are forced into the "user:"
// namespace at submission, and lookups never cross namespaces.
func (s *Service) benchFor(name string) (bench.Benchmark, error) {
	if b, ok := s.byName[name]; ok {
		return b, nil
	}
	if workload.IsUserName(name) {
		p, err := s.programs.Get(name)
		if err != nil {
			return bench.Benchmark{}, err
		}
		return p.Benchmark(), nil
	}
	return bench.Benchmark{}, invalidf("unknown benchmark %q (submitted programs are served under the user: namespace)", name)
}

// validate checks req against the served suite (built-in or registered user
// program) and returns its normalized form (granularity defaulted,
// full-evaluation requests canonicalized).
func (s *Service) validate(req Request) (Request, error) {
	if _, err := s.benchFor(req.Bench); err != nil {
		return req, err
	}
	if req.Model == "" {
		req.Gran = 0 // full evaluation collects both granularities
		return req, nil
	}
	if pipeline.New(req.Model) == nil {
		return req, invalidf("unknown model %q", req.Model)
	}
	switch req.Gran {
	case 0:
		req.Gran = 1
	case 1, 2:
	default:
		return req, invalidf("granularity %d not in {1,2}", req.Gran)
	}
	return req, nil
}

// serveCopy returns a per-serve copy of a canonical response.
func serveCopy(r *Response, cached bool) *Response {
	cp := *r
	cp.Cached = cached
	return &cp
}

// cached answers key from the result cache or, on a miss that allow (when
// set) admits, runs fill once across concurrent identical callers and
// caches its result; errors are never cached. An armed cache.get fault
// degrades the lookup to a miss (the job re-executes) and an armed
// cache.put fault skips the store (a later request re-executes): neither
// fails a request.
func (s *Service) cached(ctx context.Context, key string, allow func() error, fill func() (*Response, error)) (*Response, error) {
	if s.faults.Fire(ctx, faultinject.PointCacheGet) == nil {
		if resp, ok := s.cache.Get(key); ok {
			s.metrics.cacheHits.Add(1)
			return serveCopy(resp, true), nil
		}
	}
	s.metrics.cacheMisses.Add(1)
	if allow != nil {
		if err := allow(); err != nil {
			return nil, err
		}
	}
	resp, shared, err := s.flight.Do(ctx, key, func() (*Response, error) {
		out, err := fill()
		if err != nil {
			return nil, err
		}
		if s.faults.Fire(ctx, faultinject.PointCachePut) == nil {
			evicted, _ := s.cache.Add(key, out, 0)
			s.metrics.cacheEvictions.Add(uint64(len(evicted)))
		}
		return out, nil
	})
	if shared {
		s.metrics.flightShared.Add(1)
	}
	if err != nil {
		if countsAsFailure(err) {
			s.metrics.failures.Add(1)
		}
		return nil, err
	}
	return serveCopy(resp, false), nil
}

// withRetry runs fn, re-attempting transient failures (and only those) up
// to s.retries times with exponential backoff. Backoff waits end early when
// ctx does.
func (s *Service) withRetry(ctx context.Context, fn func() error) error {
	for attempt := 0; ; attempt++ {
		err := fn()
		if err == nil || attempt >= s.retries || !faultinject.IsTransient(err) || ctx.Err() != nil {
			return err
		}
		s.metrics.retries.Add(1)
		backoff := retryBackoffBase << attempt
		if backoff > retryBackoffMax {
			backoff = retryBackoffMax
		}
		t := time.NewTimer(backoff)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return err
		}
	}
}

// breakerKey is the circuit-breaker identity of a request: granularity is
// deliberately excluded — a failing simulation fails at every granularity.
func breakerKey(bench, model string) string { return bench + "|" + model }

// Simulate runs (or serves from cache) one simulation job. Identical
// concurrent requests share a single underlying trace execution.
func (s *Service) Simulate(ctx context.Context, req Request) (*Response, error) {
	return s.simulate(ctx, req, true)
}

// simulate is Simulate with an admission switch: service-internal fan-out
// (sweep jobs) bypasses the bounded wait queue, since those bursts belong
// to one already-admitted request.
func (s *Service) simulate(ctx context.Context, req Request, admit bool) (*Response, error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	defer s.end()
	req, err := s.validate(req)
	if err != nil {
		s.metrics.invalid.Add(1)
		return nil, err
	}
	s.metrics.requests.Add(1)
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	bkey := breakerKey(req.Bench, req.Model)
	allow := func() error { return s.breaker.allow(bkey) }
	return s.cached(ctx, req.key(), allow, func() (*Response, error) {
		var out *Response
		runErr := s.withRetry(ctx, func() error {
			var execErr error
			submit := s.pool.do
			if !admit {
				submit = s.pool.doInternal
			}
			if poolErr := submit(ctx, func() {
				out, execErr = s.execute(ctx, req)
			}); poolErr != nil {
				return poolErr
			}
			return execErr
		})
		s.breaker.record(bkey, runErr)
		return out, runErr
	})
}

// countsAsFailure reports whether err is an execution failure for the
// failures metric: cancellations are the client's doing and shed
// submissions are already tallied separately as shed.
func countsAsFailure(err error) bool {
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) &&
		!errors.Is(err, ErrOverloaded)
}

// execute performs the actual trace run for req on the calling (worker)
// goroutine.
func (s *Service) execute(ctx context.Context, req Request) (*Response, error) {
	if err := s.faults.Fire(ctx, faultinject.PointTraceRunStart); err != nil {
		return nil, err
	}
	if s.failHook != nil {
		if err := s.failHook(req); err != nil {
			return nil, err
		}
	}
	rc, err := s.recoder()
	if err != nil {
		return nil, err
	}
	// Re-resolve at execution time: a user program can be evicted between
	// validation and its pool slot, which surfaces as the typed lookup
	// error rather than an empty benchmark.
	b, err := s.benchFor(req.Bench)
	if err != nil {
		return nil, err
	}
	s.metrics.executions.Add(1)
	start := time.Now()

	resp, err := s.executeReplay(ctx, req, rc, b)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	s.metrics.observeLatency(elapsed)
	resp.ElapsedMS = float64(elapsed) / float64(time.Millisecond)
	return resp, nil
}
