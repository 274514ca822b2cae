package simsvc

import (
	"context"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/experiments"
)

// partialKeyPrefix namespaces partial-evaluation cache/singleflight keys.
// Benchmark names never contain a newline, so no per-job or suite key can
// collide with a partial key.
const partialKeyPrefix = "partial\n"

// Partial runs the full evaluation over a subset of the served suite and
// returns the shard's share of a scattered suite: encoded per-benchmark
// results plus raw suite-level collector state (see experiments.PartialSuite).
// The recoder and function-code profile are still those of the whole served
// suite — partitioning the work must not change the science — so a gateway
// merging partials from shards that serve the same suite reproduces the
// single-process suite document byte for byte. Results are cached in the
// LRU and deduplicated via singleflight exactly like Suite.
func (s *Service) Partial(ctx context.Context, benches []string) (*Response, error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	defer s.end()
	s.metrics.requests.Add(1)
	if len(benches) == 0 {
		return nil, invalidf("partial evaluation needs at least one benchmark")
	}
	subset := make([]bench.Benchmark, 0, len(benches))
	seen := make(map[string]bool, len(benches))
	for _, name := range benches {
		// benchFor resolves registered user programs too: a gateway
		// scattering a mixed suite sends each shard its share by name.
		b, err := s.benchFor(name)
		if err != nil {
			s.metrics.invalid.Add(1)
			return nil, err
		}
		if seen[name] {
			s.metrics.invalid.Add(1)
			return nil, invalidf("duplicate benchmark %q in partial evaluation", name)
		}
		seen[name] = true
		subset = append(subset, b)
	}
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	key := partialKeyPrefix + strings.Join(benches, ",")
	return s.cached(ctx, key, nil, func() (*Response, error) { return s.runPartial(ctx, subset) })
}

// runPartial evaluates the subset through the same per-benchmark unit as
// the full suite and packages the mergeable share.
func (s *Service) runPartial(ctx context.Context, subset []bench.Benchmark) (*Response, error) {
	rc, functs, err := s.recoderProfile()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	outs, err := s.evalBenches(ctx, rc, subset)
	if err != nil {
		return nil, err
	}
	master := experiments.NewSuiteCollectors()
	ps := &experiments.PartialSuite{
		Functs: experiments.EncodeFuncts(functs, rc),
	}
	var insts uint64
	for i := range outs {
		ps.Benchmarks = append(ps.Benchmarks, experiments.EncodeBench(outs[i].br))
		insts += outs[i].br.Insts
		master.Merge(outs[i].cols)
	}
	ps.Collectors = master.State()
	elapsed := time.Since(start)
	s.metrics.observeLatency(elapsed)
	return &Response{
		Insts:     insts,
		Partial:   ps,
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
	}, nil
}
