package simsvc

import (
	"bytes"
	"context"
	"os"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/icomp"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

func mustTestBench(t *testing.T, name string) bench.Benchmark {
	t.Helper()
	b, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	return b
}

// churnRecoders builds n recoders with distinct profiles (rotations of the
// default top-funct list), simulating a fleet of requests that each arrive
// with their own recoding.
func churnRecoders(n int) []*icomp.Recoder {
	base := icomp.DefaultTopFuncts()
	out := make([]*icomp.Recoder, n)
	for i := range out {
		rot := make([]isa.Funct, len(base))
		for j := range base {
			rot[j] = base[(j+i)%len(base)]
		}
		out[i] = icomp.MustNewRecoder(rot)
	}
	return out
}

// TestTraceCacheRefreshUnderRecoderChurn pins the accounting fix: replaying
// a cached capture under new recoder profiles grows its fetch-size memo,
// and refresh must fold that growth back into the LRU's byte ledger — and
// evict when the growth breaks the budget — instead of letting the cache
// drift over budget unaccounted.
func TestTraceCacheRefreshUnderRecoderChurn(t *testing.T) {
	ctx := context.Background()
	cp, err := trace.CaptureRun(ctx, mustTestBench(t, "dijkstra"))
	if err != nil {
		t.Fatal(err)
	}
	// The first replay also builds the capture's miss stream; take it
	// before admission so the growth below is the memos' alone.
	rcs := churnRecoders(4)
	if err := cp.ReplayBlocks(ctx, rcs[0], pipeline.NewBaseline32()); err != nil {
		t.Fatal(err)
	}
	e := &traceEntry{rep: cp}
	base := int64(cp.SizeBytes())

	var m Metrics
	// Budget fits the entry plus one more memo (a few hundred bytes for
	// dijkstra's statics), not three.
	const headroom = 512
	c := newTraceCache(base+headroom, &m)
	if ev, _ := c.add("dijkstra", e); len(ev) != 0 {
		t.Fatalf("admission evicted %d entries", len(ev))
	}
	if c.Bytes() != base {
		t.Fatalf("accounted %d bytes, want %d", c.Bytes(), base)
	}

	// One extra profile: the capture grows but still fits. refresh must
	// re-account without evicting.
	if err := cp.ReplayBlocks(ctx, rcs[1], pipeline.NewBaseline32()); err != nil {
		t.Fatal(err)
	}
	grown := int64(cp.SizeBytes())
	if grown <= base {
		t.Fatalf("capture did not grow under churn: %d <= %d", grown, base)
	}
	if ev := c.refresh("dijkstra"); len(ev) != 0 {
		t.Fatalf("in-budget refresh evicted %d entries", len(ev))
	}
	if c.Bytes() != grown || m.traceCacheBytes.Load() != grown {
		t.Fatalf("refresh accounted %d bytes (gauge %d), want %d",
			c.Bytes(), m.traceCacheBytes.Load(), grown)
	}

	// More profiles: the memo (bounded at maxIFBMemos inside the capture)
	// now exceeds the budget headroom, so refresh must evict the entry.
	for _, rc := range rcs[2:] {
		if err := cp.ReplayBlocks(ctx, rc, pipeline.NewBaseline32()); err != nil {
			t.Fatal(err)
		}
	}
	if int64(cp.SizeBytes()) <= base+headroom {
		t.Skip("memo growth under budget headroom; churn too cheap to force eviction")
	}
	ev := c.refresh("dijkstra")
	if len(ev) != 1 || ev[0].Key != "dijkstra" {
		t.Fatalf("over-budget refresh evicted %v, want the grown entry", ev)
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("after eviction: %d entries, %d bytes", c.Len(), c.Bytes())
	}
	// A refresh for a key that is no longer cached is a no-op.
	if ev := c.refresh("dijkstra"); ev != nil {
		t.Fatalf("refresh of evicted key returned %v", ev)
	}
}

// TestTraceDirSpillAndReload drives the full demote/promote cycle through
// the service: captures persist to the trace dir, an evicted benchmark
// reloads from disk instead of re-interpreting, and the reloaded capture's
// responses are byte-identical to the same job computed outside the
// service.
func TestTraceDirSpillAndReload(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	// 2 MB holds one ~1.4 MB capture at a time, so the two benchmarks
	// evict each other.
	s := testService(t, Config{Workers: 2, TraceCacheMB: 2, TraceDir: dir}, "dijkstra", "g711dec")

	req1 := Request{Bench: "dijkstra", Model: pipeline.NameByteSerial}
	req2 := Request{Bench: "g711dec", Model: pipeline.NameByteSerial}

	if _, err := s.Simulate(ctx, req1); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.ReadCaptureFile(trace.CaptureFilePath(dir, "dijkstra")); err != nil {
		t.Fatalf("capture was not persisted on first touch: %v", err)
	}
	if _, err := s.Simulate(ctx, req2); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics().Snapshot()
	if m.TraceSpills != 2 {
		t.Fatalf("spills = %d, want 2 (write-through on each capture)", m.TraceSpills)
	}
	if m.TraceCacheEvict != 1 {
		t.Fatalf("evictions = %d, want 1", m.TraceCacheEvict)
	}

	// dijkstra was evicted; touching it again must reload the spilled
	// capture, not re-interpret. A different model defeats the result LRU.
	req1b := Request{Bench: "dijkstra", Model: pipeline.NameBaseline32}
	got, err := s.Simulate(ctx, req1b)
	if err != nil {
		t.Fatal(err)
	}
	m = s.Metrics().Snapshot()
	if m.TraceSpillLoads != 1 {
		t.Fatalf("spill loads = %d, want 1", m.TraceSpillLoads)
	}
	if m.Captures != 2 {
		t.Fatalf("captures = %d, want 2 (reload must not re-interpret)", m.Captures)
	}

	// The reloaded capture must serve byte-identical responses.
	want := newReference(t, "dijkstra", "g711dec").response(t, req1b)
	if normalized(t, got) != want {
		t.Fatalf("reloaded capture diverges from the reference:\nreplay:    %s\nreference: %s", normalized(t, got), want)
	}
}

// TestTraceDirWarmStart checks the sharding story: a second service sharing
// the first one's trace dir serves its first request from disk without a
// single interpreter run.
func TestTraceDirWarmStart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	req := Request{Bench: "g711dec", Model: pipeline.NameByteSerial}

	s1 := testService(t, Config{Workers: 2, TraceDir: dir}, "g711dec")
	first, err := s1.Simulate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if m := s1.Metrics().Snapshot(); m.Captures != 1 || m.TraceSpills != 1 {
		t.Fatalf("shard 1: captures=%d spills=%d, want 1/1", m.Captures, m.TraceSpills)
	}

	s2 := testService(t, Config{Workers: 2, TraceDir: dir}, "g711dec")
	second, err := s2.Simulate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	m := s2.Metrics().Snapshot()
	if m.Captures != 0 {
		t.Fatalf("warm shard ran %d interpreter captures, want 0", m.Captures)
	}
	if m.TraceSpillLoads != 1 {
		t.Fatalf("warm shard spill loads = %d, want 1", m.TraceSpillLoads)
	}
	if first.CPI != second.CPI || first.Cycles != second.Cycles || first.Insts != second.Insts {
		t.Fatalf("warm shard diverged: %+v vs %+v", second, first)
	}
}

// TestTraceDirCorruptFileDegrades puts a file that will not load where a
// capture should be: garbage, a retired SIGCAP01 capture, or another
// benchmark's capture. The service must fall back to interpreting, not
// fail or serve junk, and must replace the file with its fresh capture, so
// the next shard on the directory starts warm instead of re-interpreting
// on every cold start.
func TestTraceDirCorruptFileDegrades(t *testing.T) {
	ctx := context.Background()
	req := Request{Bench: "g711dec", Model: pipeline.NameByteSerial}
	other, err := trace.CaptureRun(ctx, mustTestBench(t, "rawdaudio"))
	if err != nil {
		t.Fatal(err)
	}
	var otherFile bytes.Buffer
	if _, err := other.WriteTo2(&otherFile); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"garbage", []byte("not a capture")},
		{"SIGCAP01", append([]byte("SIGCAP01\x07g711dec"), make([]byte, 64)...)},
		{"other benchmark", otherFile.Bytes()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(trace.CaptureFilePath(dir, "g711dec"), tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			s := testService(t, Config{Workers: 2, TraceDir: dir}, "g711dec")
			first, err := s.Simulate(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			m := s.Metrics().Snapshot()
			if m.Captures != 1 || m.TraceSpillLoads != 0 {
				t.Fatalf("captures=%d spill loads=%d, want 1/0 (the file must force re-interpretation)",
					m.Captures, m.TraceSpillLoads)
			}
			if m.TraceSpills != 1 {
				t.Fatalf("spills = %d, want 1 (the fresh capture must replace the file)", m.TraceSpills)
			}

			warm := testService(t, Config{Workers: 2, TraceDir: dir}, "g711dec")
			second, err := warm.Simulate(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if m := warm.Metrics().Snapshot(); m.Captures != 0 || m.TraceSpillLoads != 1 {
				t.Fatalf("next shard: captures=%d spill loads=%d, want 0/1", m.Captures, m.TraceSpillLoads)
			}
			if first.CPI != second.CPI || first.Cycles != second.Cycles || first.Insts != second.Insts {
				t.Fatalf("next shard diverged: %+v vs %+v", second, first)
			}
		})
	}
}

// TestTraceDirDamagedFrameHeals damages one frame of a trace-dir file. The
// file still opens (opening checks only the header and the footer index),
// so the damage surfaces when the recoder derivation counts the file's slot
// columns. The shard must drop the entry and the file, re-interpret that
// one benchmark, write a fresh file, and answer exactly as an undamaged
// shard does.
func TestTraceDirDamagedFrameHeals(t *testing.T) {
	ctx := context.Background()
	served := []string{"dijkstra", "g711dec"}
	dir := t.TempDir()
	for _, name := range served {
		cp, err := trace.CaptureRun(ctx, mustTestBench(t, name))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := trace.WriteCaptureFile(dir, cp); err != nil {
			t.Fatal(err)
		}
	}
	path := trace.CaptureFilePath(dir, "dijkstra")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10 // mid-file: inside some frame payload
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s := testService(t, Config{Workers: 2, TraceDir: dir}, served...)
	req := Request{Bench: "dijkstra", Model: pipeline.NameByteSerial, Gran: 1}
	got, err := s.Simulate(ctx, req)
	if err != nil {
		t.Fatalf("request on a shard with a damaged frame: %v", err)
	}
	if want := newReference(t, served...).response(t, req); normalized(t, got) != want {
		t.Fatalf("healed shard diverged:\ngot:  %s\nwant: %s", normalized(t, got), want)
	}
	if m := s.Metrics().Snapshot(); m.Captures != 1 || m.TraceSpills != 1 {
		t.Fatalf("captures = %d, spills = %d, want 1/1 (only the damaged benchmark re-interpreted and rewritten)",
			m.Captures, m.TraceSpills)
	}
	mc, err := trace.OpenMappedCapture(path)
	if err != nil {
		t.Fatalf("rewritten file: %v", err)
	}
	defer mc.Close()
	if _, err := mc.FunctCounts(); err != nil {
		t.Fatalf("rewritten file still damaged: %v", err)
	}

	// Two requests on one damaged entry. A second shard maps both healed
	// files for its recoder; then dijkstra's file is damaged in place, so
	// the cached mapping reads the damage. Two requests for different
	// models replay that entry at once: one drops it and spills a fresh
	// file; the other must not delete that file, however their drops
	// interleave. A drop of the stale entry after the heal must not either.
	s2 := testService(t, Config{Workers: 2, TraceDir: dir}, served...)
	if _, _, err := s2.recoderProfile(ctx); err != nil {
		t.Fatal(err)
	}
	stale, ok := s2.traces.Peek("dijkstra")
	if !ok || stale.mapped == nil {
		t.Fatal("second shard did not map dijkstra")
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	off := int64(len(raw) / 2)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x10
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
	f.Close()
	reqs := []Request{req, {Bench: "dijkstra", Model: pipeline.NameBaseline32, Gran: 1}}
	ref := newReference(t, served...)
	var wg sync.WaitGroup
	for _, r := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := s2.Simulate(ctx, r)
			if err != nil {
				t.Errorf("%s on a damaged mapped entry: %v", r.Model, err)
				return
			}
			if want := ref.response(t, r); normalized(t, got) != want {
				t.Errorf("%s diverged:\ngot:  %s\nwant: %s", r.Model, normalized(t, got), want)
			}
		}()
	}
	wg.Wait()
	healed, _ := s2.traces.Peek("dijkstra")
	s2.dropDamaged("dijkstra", stale)
	if cur, _ := s2.traces.Peek("dijkstra"); cur != healed {
		t.Fatal("dropping the stale entry removed its replacement from the trace cache")
	}
	mc, err = trace.OpenMappedCapture(path)
	if err != nil {
		t.Fatalf("fresh file after both drops: %v", err)
	}
	defer mc.Close()
	if _, err := mc.FunctCounts(); err != nil {
		t.Fatalf("fresh file after both drops still damaged: %v", err)
	}
}

// TestTraceDirMappedTier pins the mapped residency tier: a shard warm-started
// from another shard's SIGCAP02 spills maps the files instead of decoding
// them, so (a) no interpreter runs, (b) every load is a map load, (c) both
// benchmarks fit a budget that forced the cold shard to evict — a mapped
// entry is accounted at roughly index + one frame buffer, not the decoded
// columns — and (d) the responses stay byte-identical to the cold shard's.
// With TraceNoMmap the same warm start decodes eagerly instead and the
// responses still match. That load is trace.ReadCaptureFile, which reads
// frames positionally and never maps the file.
func TestTraceDirMappedTier(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	req1 := Request{Bench: "dijkstra", Model: pipeline.NameByteSerial, Gran: 1}
	req2 := Request{Bench: "g711dec", Model: pipeline.NameByteSerial, Gran: 1}

	// Cold shard: interprets and spills; the 2 MB budget holds only one
	// decoded (~1.4 MB) capture at a time, so deriving the recoder, which
	// captures both benchmarks, evicts one of them. Whichever it is comes
	// back on the mapped tier, from the file this shard spilled.
	cold := testService(t, Config{Workers: 2, TraceCacheMB: 2, TraceDir: dir}, "dijkstra", "g711dec")
	w1, err := cold.Simulate(ctx, req1)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := cold.Simulate(ctx, req2)
	if err != nil {
		t.Fatal(err)
	}
	if n := cold.TraceMappedEntries(); n != 1 {
		t.Fatalf("cold shard reports %d mapped entries, want 1 (the evicted capture, re-mapped)", n)
	}
	if m := cold.Metrics().Snapshot(); m.TraceCacheEvict != 1 {
		t.Fatalf("cold shard evictions = %d, want 1 (budget fits one decoded capture)", m.TraceCacheEvict)
	}
	coldBytes := cold.TraceCacheBytes() // one resident capture and one mapped entry

	// Warm shard sharing the dir under the same budget: both entries are
	// mapped, nothing is interpreted, nothing is evicted.
	warm := testService(t, Config{Workers: 2, TraceCacheMB: 2, TraceDir: dir}, "dijkstra", "g711dec")
	g1, err := warm.Simulate(ctx, req1)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := warm.Simulate(ctx, req2)
	if err != nil {
		t.Fatal(err)
	}
	m := warm.Metrics().Snapshot()
	if m.Captures != 0 {
		t.Fatalf("warm shard ran %d interpreter captures, want 0", m.Captures)
	}
	if m.TraceSpillLoads != 2 || m.TraceMapLoads != 2 {
		t.Fatalf("warm shard loads: spill=%d map=%d, want 2/2", m.TraceSpillLoads, m.TraceMapLoads)
	}
	if n := warm.TraceMappedEntries(); n != 2 {
		t.Fatalf("warm shard mapped entries = %d, want 2", n)
	}
	if m.TraceCacheEvict != 0 {
		t.Fatalf("warm shard evicted %d entries; both mapped entries must fit the budget", m.TraceCacheEvict)
	}
	if wb := warm.TraceCacheBytes(); wb >= coldBytes/4 {
		t.Fatalf("two mapped entries account %d bytes, one resident capture %d: mapped tier is not cheap",
			wb, coldBytes)
	}
	if normalized(t, g1) != normalized(t, w1) || normalized(t, g2) != normalized(t, w2) {
		t.Fatalf("mapped replay diverges from resident replay:\nmapped:   %s\nresident: %s",
			normalized(t, g1), normalized(t, w1))
	}

	// TraceNoMmap: same warm start, eager tier only, same answers. One
	// worker loads the suite for the recoder in order: g711dec evicts
	// dijkstra, which req1 then loads a second time.
	eager := testService(t, Config{Workers: 1, TraceCacheMB: 2, TraceDir: dir, TraceNoMmap: true}, "dijkstra", "g711dec")
	e1, err := eager.Simulate(ctx, req1)
	if err != nil {
		t.Fatal(err)
	}
	m = eager.Metrics().Snapshot()
	if m.TraceMapLoads != 0 || m.TraceSpillLoads != 3 || m.Captures != 0 {
		t.Fatalf("TraceNoMmap loads: spill=%d map=%d captures=%d, want 3/0/0", m.TraceSpillLoads, m.TraceMapLoads, m.Captures)
	}
	if n := eager.TraceMappedEntries(); n != 0 {
		t.Fatalf("TraceNoMmap shard mapped entries = %d, want 0", n)
	}
	if normalized(t, e1) != normalized(t, w1) {
		t.Fatalf("eager warm replay diverges:\neager: %s\ncold:  %s", normalized(t, e1), normalized(t, w1))
	}
}
