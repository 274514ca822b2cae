package simsvc

import (
	"context"
	"errors"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/icomp"
)

// suiteKey is the cache/singleflight identity of the full-suite evaluation.
// Request keys are "bench|model|gran" and benchmark names never contain a
// newline, so this key cannot collide with any per-job key.
const suiteKey = "suite\n"

// Suite runs the paper's complete evaluation over the served suite: every
// benchmark through every pipeline model and activity collector, with
// per-benchmark suite collectors merged deterministically in suite order.
// Per-benchmark runs fan out across the worker pool (first error cancels
// the rest); the finished evaluation is cached in the LRU and concurrent
// identical calls share one execution via singleflight, exactly like
// Simulate.
func (s *Service) Suite(ctx context.Context) (*Response, error) {
	return s.SuiteOf(ctx, nil)
}

// SuiteOf is Suite over an explicit benchmark list — built-ins and
// registered user programs mixed freely, evaluated and merged in the
// requested order. The recoder and function-code profile stay those of the
// fixed served suite regardless of the list (user programs must not change
// the science), so the same list produces a byte-identical document on
// every shard serving the same suite. An empty list is the full served
// suite (identical to Suite, same cache entry).
func (s *Service) SuiteOf(ctx context.Context, names []string) (*Response, error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	defer s.end()
	s.metrics.requests.Add(1)
	subset := s.benches
	key := suiteKey
	if len(names) > 0 {
		subset = make([]bench.Benchmark, 0, len(names))
		seen := make(map[string]bool, len(names))
		for _, name := range names {
			if seen[name] {
				s.metrics.invalid.Add(1)
				return nil, invalidf("duplicate benchmark %q in suite", name)
			}
			seen[name] = true
			b, err := s.benchFor(name)
			if err != nil {
				s.metrics.invalid.Add(1)
				return nil, err
			}
			subset = append(subset, b)
		}
		// Benchmark names never contain a newline, so explicit-list keys
		// cannot collide with the bare suite key or each other's lists.
		key = suiteKey + strings.Join(names, ",")
	}
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	return s.cached(ctx, key, nil, func() (*Response, error) { return s.runSuite(ctx, subset) })
}

// benchOut is one benchmark's share of a (full or partial) suite
// evaluation: its encoded result and its private suite-level collectors,
// merged in suite order afterwards.
type benchOut struct {
	br   experiments.BenchResult
	cols *experiments.SuiteCollectors
}

// evalBenches fans the per-benchmark full evaluation across the worker
// pool — one job per benchmark, each with its own SuiteCollectors, under
// the breaker and transient-retry policy — and returns the outputs in
// benches order. It is the shared unit under both the single-process suite
// (runSuite) and the cluster's scattered partial evaluation (runPartial).
func (s *Service) evalBenches(ctx context.Context, rc *icomp.Recoder, benches []bench.Benchmark) ([]benchOut, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	outs := make([]benchOut, len(benches))
	errs := make([]error, len(benches))
	var wg sync.WaitGroup
	for i, b := range benches {
		wg.Add(1)
		go func(i int, b bench.Benchmark) {
			defer wg.Done()
			bkey := breakerKey(b.Name, "")
			if err := s.breaker.allow(bkey); err != nil {
				errs[i] = err
				cancel()
				return
			}
			// Transient per-benchmark failures (and only those) are retried
			// with backoff before the whole evaluation is abandoned.
			err := s.withRetry(ctx, func() error {
				var runErr error
				poolErr := s.pool.doInternal(ctx, func() {
					if err := s.faults.Fire(ctx, faultinject.PointSuiteBench); err != nil {
						runErr = err
						return
					}
					if s.failHook != nil {
						if err := s.failHook(Request{Bench: b.Name}); err != nil {
							runErr = err
							return
						}
					}
					s.metrics.executions.Add(1)
					// Replay the benchmark's shared capture (one interpreter
					// run per benchmark, whoever asked first), with fresh
					// collectors on each attempt.
					var (
						br   experiments.BenchResult
						cols *experiments.SuiteCollectors
					)
					runErr = s.withEntry(ctx, b, func(e *traceEntry) (err error) {
						cols = experiments.NewSuiteCollectors()
						br, err = experiments.RunBenchReplay(ctx, e.rep, rc, cols)
						return err
					})
					if runErr != nil {
						return
					}
					outs[i] = benchOut{br: br, cols: cols}
				})
				if poolErr != nil {
					return poolErr
				}
				return runErr
			})
			s.breaker.record(bkey, err)
			if err != nil {
				errs[i] = err
				cancel()
			}
		}(i, b)
	}
	wg.Wait()
	// Report the root cause rather than a cancellation it induced: prefer
	// the first non-context error, falling back to the first error seen.
	var firstErr error
	for _, e := range errs {
		if e == nil {
			continue
		}
		if firstErr == nil {
			firstErr = e
		}
		if !errors.Is(e, context.Canceled) && !errors.Is(e, context.DeadlineExceeded) {
			firstErr = e
			break
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return outs, nil
}

// runSuite performs the parallel full evaluation over the benchmark list
// and assembles the complete results document.
func (s *Service) runSuite(ctx context.Context, benches []bench.Benchmark) (*Response, error) {
	rc, functs, err := s.recoderProfile(ctx)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	outs, err := s.evalBenches(ctx, rc, benches)
	if err != nil {
		return nil, err
	}

	master := experiments.NewSuiteCollectors()
	res := &experiments.Results{
		Recoder:    rc,
		Functs:     functs,
		Patterns:   master.Patterns,
		Fetch:      master.Fetch,
		Partitions: master.Partitions,
		Width64:    master.Width64,
		Frontend:   master.Frontend,
		BM:         master.BM,
	}
	var insts uint64
	for i := range outs {
		res.Bench = append(res.Bench, outs[i].br)
		insts += outs[i].br.Insts
		master.Merge(outs[i].cols)
	}
	elapsed := time.Since(start)
	s.metrics.observeLatency(elapsed)
	return &Response{
		Insts:     insts,
		Suite:     res.Encode(),
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
	}, nil
}
