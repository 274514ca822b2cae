package simsvc

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/faultinject"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// checkProfile holds the service's derived recoder and function-code counts
// to trace.SuiteRecoder over the same suite, the oracle that steps the
// interpreter instead of reading captures.
func checkProfile(t *testing.T, s *Service, suite []bench.Benchmark) {
	t.Helper()
	wantRC, wantFuncts, err := trace.SuiteRecoder(suite)
	if err != nil {
		t.Fatal(err)
	}
	rc, functs, err := s.recoderProfile(context.Background())
	if err != nil {
		t.Fatalf("recoderProfile: %v", err)
	}
	if rc.Profile() != wantRC.Profile() {
		t.Errorf("recoder profile %v, SuiteRecoder %v", rc.Profile(), wantRC.Profile())
	}
	if !reflect.DeepEqual(functs, wantFuncts) {
		t.Errorf("functs %v, SuiteRecoder %v", functs, wantFuncts)
	}
}

// TestRecoderFromCaptures pins the recoder derivation on every tier that
// can hold the served suite's captures: a resident shard interprets each
// benchmark once and keeps the captures for later requests; a shard on a
// trace dir maps the files and counts their slot columns; with TraceNoMmap
// it decodes them; and a restricted Config.Benchmarks derives from exactly
// its own suite.
func TestRecoderFromCaptures(t *testing.T) {
	all := bench.All()
	dir := t.TempDir()
	ctx := context.Background()

	t.Run("resident", func(t *testing.T) {
		s := New(Config{Workers: 2, TraceDir: dir})
		defer s.Close()
		checkProfile(t, s, all)
		m := s.Metrics().Snapshot()
		if m.Captures != uint64(len(all)) || m.TraceSpillLoads != 0 {
			t.Fatalf("captures = %d, spill loads = %d, want %d/0", m.Captures, m.TraceSpillLoads, len(all))
		}
		if s.TraceCacheLen() != len(all) || s.TraceMappedEntries() != 0 {
			t.Fatalf("%d cached traces (%d mapped), want %d resident", s.TraceCacheLen(), s.TraceMappedEntries(), len(all))
		}
		// Later requests replay the derivation's captures.
		if _, err := s.Simulate(ctx, Request{Bench: all[0].Name, Model: pipeline.NameBaseline32}); err != nil {
			t.Fatal(err)
		}
		if m := s.Metrics().Snapshot(); m.Captures != uint64(len(all)) || m.TraceCacheHits == 0 {
			t.Fatalf("after a request: captures = %d, trace hits = %d, want %d and some", m.Captures, m.TraceCacheHits, len(all))
		}
	})
	t.Run("mapped", func(t *testing.T) {
		s := New(Config{Workers: 2, TraceDir: dir})
		defer s.Close()
		checkProfile(t, s, all)
		if m := s.Metrics().Snapshot(); m.Captures != 0 || m.TraceMapLoads != uint64(len(all)) {
			t.Fatalf("captures = %d, map loads = %d, want 0/%d", m.Captures, m.TraceMapLoads, len(all))
		}
		if n := s.TraceMappedEntries(); n != len(all) {
			t.Fatalf("%d mapped entries, want %d", n, len(all))
		}
	})
	t.Run("no-mmap", func(t *testing.T) {
		s := New(Config{Workers: 2, TraceDir: dir, TraceNoMmap: true})
		defer s.Close()
		checkProfile(t, s, all)
		if m := s.Metrics().Snapshot(); m.Captures != 0 || m.TraceMapLoads != 0 || m.TraceSpillLoads != uint64(len(all)) {
			t.Fatalf("captures = %d, map loads = %d, spill loads = %d, want 0/0/%d",
				m.Captures, m.TraceMapLoads, m.TraceSpillLoads, len(all))
		}
	})
	t.Run("restricted", func(t *testing.T) {
		s := testService(t, Config{Workers: 2}, "dijkstra", "g711dec", "rawdaudio")
		checkProfile(t, s, s.Benchmarks())
		if m := s.Metrics().Snapshot(); m.Captures != 3 {
			t.Fatalf("captures = %d, want 3", m.Captures)
		}
	})
}

// TestRecoderDerivationRetried checks what a derivation keeps. Requests
// whose contexts are already cancelled, racing live ones, do not cancel
// the derivation: the live requests get its recoder, the suite is captured
// once and the recoder is kept. A derivation whose capture panicked is not
// remembered: the next request derives again and gets the oracle's
// recoder.
func TestRecoderDerivationRetried(t *testing.T) {
	ctx := context.Background()

	t.Run("cancelled", func(t *testing.T) {
		s := testService(t, Config{Workers: 2}, "dijkstra", "g711dec")
		cancelled, cancel := context.WithCancel(ctx)
		cancel()
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if i%2 == 0 {
					// Leading, it waits for the derivation; joining, it
					// may give up with its own cancellation.
					if _, _, err := s.recoderProfile(cancelled); err != nil && !errors.Is(err, context.Canceled) {
						t.Errorf("cancelled request: %v", err)
					}
					return
				}
				if _, _, err := s.recoderProfile(ctx); err != nil {
					t.Errorf("live request racing cancelled ones: %v", err)
				}
			}()
		}
		wg.Wait()
		checkProfile(t, s, s.Benchmarks())
		if m := s.Metrics().Snapshot(); m.Captures != 2 {
			t.Fatalf("captures = %d, want 2 (one derivation, kept)", m.Captures)
		}
	})

	t.Run("panicked", func(t *testing.T) {
		inj := faultinject.MustNew(5, faultinject.Rule{Point: faultinject.PointCacheGet, Kind: faultinject.KindPanic, Prob: 1})
		s := chaosService(t, Config{Workers: 2}, inj, "dijkstra", "g711dec")
		// The result cache's own cache.get would panic first (the HTTP
		// layer contains that one), so derive directly.
		if _, _, err := s.recoderProfile(ctx); !errors.Is(err, ErrPanic) {
			t.Fatalf("derivation under a cache.get panic: %v, want a contained panic", err)
		}
		if m := s.Metrics().Snapshot(); m.Panics == 0 {
			t.Fatal("the derivation's panic was not counted")
		}
		inj.SetEnabled(false)
		if _, err := s.Simulate(ctx, Request{Bench: "dijkstra", Model: pipeline.NameBaseline32}); err != nil {
			t.Fatalf("request after the fault cleared: %v", err)
		}
		checkProfile(t, s, s.Benchmarks())
	})
}
