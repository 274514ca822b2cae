package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/diffsim"
	"repro/internal/faultinject"
	"repro/internal/pipeline"
	"repro/internal/simsvc"
	"repro/internal/workload"
)

// fleetBenches is the suite served by every test shard: small enough to
// evaluate quickly, big enough to partition across three shards.
var fleetBenches = []string{"g711dec", "g711enc", "crc32"}

// newShard boots one in-process sigserve shard over HTTP.
func newShard(t *testing.T, cfg simsvc.Config, benchNames ...string) (*simsvc.Service, *httptest.Server) {
	t.Helper()
	if len(benchNames) == 0 {
		benchNames = fleetBenches
	}
	for _, n := range benchNames {
		b, ok := bench.ByName(n)
		if !ok {
			t.Fatalf("unknown test benchmark %q", n)
		}
		cfg.Benchmarks = append(cfg.Benchmarks, b)
	}
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	svc := simsvc.New(cfg)
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(simsvc.NewHandler(svc))
	t.Cleanup(func() {
		srv.Close()
		http.DefaultClient.CloseIdleConnections()
	})
	return svc, srv
}

// newFleet boots n identical shards. Every shard serves the same suite —
// the merge invariant (the recoder is profiled over the served suite)
// depends on it.
func newFleet(t *testing.T, n int) []*httptest.Server {
	t.Helper()
	servers := make([]*httptest.Server, n)
	for i := range servers {
		_, servers[i] = newShard(t, simsvc.Config{})
	}
	return servers
}

// newGateway fronts the given shards. Tests default to passive health
// only (no prober) and no hedging so failure handling is deterministic;
// individual tests opt back in through mod.
func newGateway(t *testing.T, servers []*httptest.Server, mod func(*Config)) (*Gateway, *httptest.Server) {
	t.Helper()
	cfg := Config{
		ProbeInterval: -1,
		HedgeAfter:    -1,
		RetryAfterCap: 100 * time.Millisecond,
	}
	for _, srv := range servers {
		cfg.Backends = append(cfg.Backends, srv.URL)
	}
	if mod != nil {
		mod(&cfg)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	srv := httptest.NewServer(NewHandler(g))
	t.Cleanup(func() {
		srv.Close()
		http.DefaultClient.CloseIdleConnections()
	})
	return g, srv
}

func getJSON(t *testing.T, url string, out interface{}) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

func TestRingOwnerDeterministicAndSequenceComplete(t *testing.T) {
	names := []string{"a:1", "b:2", "c:3"}
	r := newRing(names, 0)
	for _, key := range []string{"g711dec|baseline32", "crc32|skewed+bypass", "fft|"} {
		o1, o2 := r.owner(key), r.owner(key)
		if o1 != o2 {
			t.Fatalf("owner(%q) not deterministic: %d vs %d", key, o1, o2)
		}
		seq := r.sequence(key)
		if len(seq) != len(names) {
			t.Fatalf("sequence(%q) = %v, want all %d backends", key, seq, len(names))
		}
		if seq[0] != o1 {
			t.Fatalf("sequence(%q) starts at %d, owner is %d", key, seq[0], o1)
		}
		seen := make(map[int]bool)
		for _, i := range seq {
			if seen[i] {
				t.Fatalf("sequence(%q) repeats backend %d: %v", key, i, seq)
			}
			seen[i] = true
		}
	}
}

// The consistent-hashing property: removing one backend only remaps the
// keys it owned; every other key keeps its owner.
func TestRingConsistencyUnderMembershipChange(t *testing.T) {
	full := newRing([]string{"a:1", "b:2", "c:3"}, 0)
	reduced := newRing([]string{"a:1", "b:2"}, 0)
	moved, kept := 0, 0
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("bench%d|model", i)
		before := full.owner(key)
		after := reduced.owner(key)
		if before == 2 {
			continue // owned by the removed backend: must remap somewhere
		}
		if before == after {
			kept++
		} else {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys owned by surviving backends moved (kept %d); consistent hashing must only remap the lost backend's keys", moved, kept)
	}
}

// suiteDoc fetches /v1/suite from url and returns the canonical bytes of
// the suite document plus the instruction count. The envelope's elapsed
// time is the only field allowed to differ between runs.
func suiteDoc(t *testing.T, url string) ([]byte, uint64) {
	t.Helper()
	var resp simsvc.Response
	if r := getJSON(t, url+"/v1/suite", &resp); r.StatusCode != 200 {
		t.Fatalf("suite status %d", r.StatusCode)
	}
	if resp.Suite == nil {
		t.Fatal("suite response missing the suite document")
	}
	doc, err := json.MarshalIndent(resp.Suite, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return doc, resp.Insts
}

// The tentpole acceptance: a suite scattered over 1, 2 and 3 shards is
// byte-identical to the single-process evaluation, and stays identical
// when the shard count changes between runs (the partitioning moves, the
// answer must not).
func TestClusterSuiteByteIdenticalAcrossShardCounts(t *testing.T) {
	_, single := newShard(t, simsvc.Config{})
	want, wantInsts := suiteDoc(t, single.URL)

	for _, shards := range []int{1, 2, 3} {
		_, gw := newGateway(t, newFleet(t, shards), nil)
		got, gotInsts := suiteDoc(t, gw.URL)
		if gotInsts != wantInsts {
			t.Fatalf("%d shards: instructions %d, single-process %d", shards, gotInsts, wantInsts)
		}
		if string(got) != string(want) {
			t.Fatalf("%d shards: suite document differs from the single-process evaluation (%d vs %d bytes)", shards, len(got), len(want))
		}
	}
}

// sweepLines runs a sweep over url and returns the canonicalized NDJSON
// result lines (sorted, volatile envelope fields cleared) plus the
// summary.
func sweepLines(t *testing.T, url, query string) ([]string, *simsvc.SweepSummary) {
	t.Helper()
	resp, err := http.Get(url + "/v1/sweep" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("sweep status %d", resp.StatusCode)
	}
	var lines []string
	var summary *simsvc.SweepSummary
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		var wrapped struct {
			Summary *simsvc.SweepSummary `json:"summary"`
			Error   string               `json:"error"`
		}
		if json.Unmarshal([]byte(line), &wrapped) == nil && wrapped.Summary != nil {
			summary = wrapped.Summary
			continue
		}
		if wrapped.Error != "" {
			t.Fatalf("sweep stream error: %s", wrapped.Error)
		}
		var r simsvc.Response
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad sweep line %q: %v", line, err)
		}
		// Serving envelope, not science: timings and cache hits depend on
		// which process answered.
		r.ElapsedMS = 0
		r.Cached = false
		canon, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(canon))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if summary == nil {
		t.Fatal("sweep stream ended without a summary line")
	}
	sortStrings(lines)
	return lines, summary
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// A sweep scattered over three shards produces the same result set and
// the same summary tables as a single shard's sweep.
func TestClusterSweepMatchesSingleShard(t *testing.T) {
	query := "?model=" + pipeline.NameBaseline32 + ",skewed%2Bbypass," + pipeline.NameDualCompress4
	_, single := newShard(t, simsvc.Config{})
	wantLines, wantSum := sweepLines(t, single.URL, query)

	_, gw := newGateway(t, newFleet(t, 3), nil)
	gotLines, gotSum := sweepLines(t, gw.URL, query)

	if len(gotLines) != len(wantLines) {
		t.Fatalf("scattered sweep has %d result lines, single shard %d", len(gotLines), len(wantLines))
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("sweep line %d differs:\n gateway: %s\n single:  %s", i, gotLines[i], wantLines[i])
		}
	}
	if gotSum.Jobs != wantSum.Jobs || gotSum.Failed != wantSum.Failed {
		t.Fatalf("summary jobs/failed %d/%d, single shard %d/%d", gotSum.Jobs, gotSum.Failed, wantSum.Jobs, wantSum.Failed)
	}
	gotCPI, _ := json.Marshal(gotSum.MeanCPI)
	wantCPI, _ := json.Marshal(wantSum.MeanCPI)
	if string(gotCPI) != string(wantCPI) {
		t.Fatalf("summary meanCPI differs: %s vs %s", gotCPI, wantCPI)
	}
	gotTable, _ := json.Marshal(gotSum.CPITable)
	wantTable, _ := json.Marshal(wantSum.CPITable)
	if string(gotTable) != string(wantTable) {
		t.Fatalf("summary CPI table differs:\n%s\n%s", gotTable, wantTable)
	}
}

// Chaos: one shard is armed with fault injection that fails every job it
// picks up. The gateway must route around it — failing over partition
// dispatches — and still produce the byte-identical suite.
func TestClusterSuiteSurvivesPoisonedShard(t *testing.T) {
	_, single := newShard(t, simsvc.Config{})
	want, wantInsts := suiteDoc(t, single.URL)

	faults, err := faultinject.Parse("7:pool.pickup=error@1.0")
	if err != nil {
		t.Fatal(err)
	}
	_, poisoned := newShard(t, simsvc.Config{Faults: faults, Retries: 1})
	_, healthy1 := newShard(t, simsvc.Config{})
	_, healthy2 := newShard(t, simsvc.Config{})

	// The backends are named, so ring placement does not follow
	// httptest's random ports: the poisoned shard (shard0) owns the same
	// suite partition on every run, and the suite itself must fail that
	// partition over.
	g, gw := newNamedGateway(t, []*httptest.Server{poisoned, healthy1, healthy2})
	var owned []string
	for _, b := range fleetBenches {
		if g.ring.owner(jobKey(b, "")) == 0 {
			owned = append(owned, b)
		}
	}
	if len(owned) == 0 {
		t.Fatalf("poisoned shard0 owns no suite partition of %v", fleetBenches)
	}
	got, gotInsts := suiteDoc(t, gw.URL)
	if gotInsts != wantInsts || string(got) != string(want) {
		t.Fatal("suite over a fleet with a poisoned shard differs from the single-process evaluation")
	}
	if snap := g.Metrics().Snapshot(); snap.BackendErrors == 0 {
		t.Fatalf("poisoned shard0 owns %v but produced no backend errors — the chaos never bit", owned)
	}
}

// newNamedGateway fronts servers under the fixed backend names
// http://shard0..n-1 and dials each name to its listener, so ring
// placement is the same on every run whatever ports httptest picked.
func newNamedGateway(t *testing.T, servers []*httptest.Server) (*Gateway, *httptest.Server) {
	t.Helper()
	addrs := make(map[string]string, len(servers))
	backends := make([]string, len(servers))
	for i, srv := range servers {
		name := "shard" + strconv.Itoa(i)
		addrs[name] = srv.Listener.Addr().String()
		backends[i] = "http://" + name
	}
	client := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			host, _, err := net.SplitHostPort(addr)
			if err != nil {
				return nil, err
			}
			real, ok := addrs[host]
			if !ok {
				return nil, fmt.Errorf("no listener named %q", host)
			}
			var d net.Dialer
			return d.DialContext(ctx, network, real)
		},
	}}
	t.Cleanup(client.CloseIdleConnections)
	return newGateway(t, nil, func(c *Config) {
		c.Backends = backends
		c.Client = client
	})
}

// Chaos: a whole shard is killed mid-sweep. In-flight dispatches to it
// die with transport errors; the gateway fails them over to the surviving
// shards, so the sweep completes with zero failed pairs — partial results
// are flagged when they happen, and here none may happen.
func TestClusterSweepSurvivesShardKillMidSweep(t *testing.T) {
	servers := newFleet(t, 3)
	g, gw := newGateway(t, servers, func(c *Config) {
		c.SweepInflight = 2 // keep pairs in flight while the victim dies
	})

	// Pick the victim by ring ownership so the killed shard is guaranteed
	// to own sweep pairs.
	victim := g.ring.owner(jobKey("g711enc", pipeline.NameBaseline32))

	resp, err := http.Get(gw.URL + "/v1/sweep?model=" + pipeline.NameBaseline32 + ",skewed%2Bbypass")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var summary *simsvc.SweepSummary
	results := 0
	for sc.Scan() {
		line := sc.Bytes()
		var wrapped struct {
			Summary *simsvc.SweepSummary `json:"summary"`
			Error   string               `json:"error"`
		}
		if json.Unmarshal(line, &wrapped) == nil && wrapped.Summary != nil {
			summary = wrapped.Summary
			continue
		}
		if wrapped.Error != "" {
			t.Fatalf("sweep stream aborted: %s", wrapped.Error)
		}
		var r simsvc.Response
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatal(err)
		}
		if r.Error != "" {
			t.Fatalf("pair %s/%s failed despite two healthy shards: %s", r.Bench, r.Model, r.Error)
		}
		results++
		if results == 1 {
			// First result is out: the sweep is live. Kill the victim —
			// drop its connections and stop its listener.
			servers[victim].CloseClientConnections()
			servers[victim].Close()
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if summary == nil {
		t.Fatal("sweep ended without a summary")
	}
	if summary.Failed != 0 {
		t.Fatalf("summary reports %d failed pairs; failover should have absorbed the shard loss", summary.Failed)
	}
	if summary.Jobs != len(fleetBenches)*2 {
		t.Fatalf("summary covers %d jobs, want %d", summary.Jobs, len(fleetBenches)*2)
	}
}

// A shard that sheds with 429 + Retry-After is retried in place (the hint
// honored, capped) rather than failed over.
func TestDispatchHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int32
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]string{"error": "simsvc: overloaded"})
			return
		}
		json.NewEncoder(w).Encode(simsvc.Response{Bench: "g711dec", Model: pipeline.NameBaseline32, Insts: 1, CPI: 1})
	}))
	t.Cleanup(func() {
		shard.Close()
		http.DefaultClient.CloseIdleConnections()
	})

	g, _ := newGateway(t, []*httptest.Server{shard}, func(c *Config) {
		c.RetryAfterCap = 20 * time.Millisecond // honor the hint, but don't let the test wait a real second
	})
	start := time.Now()
	resp, err := g.Simulate(context.Background(), simsvc.Request{Bench: "g711dec", Model: pipeline.NameBaseline32})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if resp.Insts != 1 || calls.Load() != 2 {
		t.Fatalf("resp %+v after %d calls, want the retried success", resp, calls.Load())
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("retry came back in %v; the Retry-After wait was not honored", elapsed)
	}
	if snap := g.Metrics().Snapshot(); snap.Retries != 1 {
		t.Fatalf("retries counter = %d, want 1", snap.Retries)
	}
}

// Identical (bench, model) jobs land on the same shard: that is the whole
// point of routing by ring ownership — the shard's result cache answers
// the repeat.
func TestRouteAffinity(t *testing.T) {
	_, gw := newGateway(t, newFleet(t, 3), nil)
	url := gw.URL + "/v1/simulate?bench=g711dec&model=" + pipeline.NameBaseline32

	var first simsvc.Response
	if r := getJSON(t, url, &first); r.StatusCode != 200 {
		t.Fatalf("status %d", r.StatusCode)
	}
	var second simsvc.Response
	getJSON(t, url, &second)
	if !second.Cached {
		t.Fatal("repeat of an identical job missed the shard cache: routing is not sticky")
	}
	if second.CPI != first.CPI || second.Cycles != first.Cycles {
		t.Fatal("cached result differs from the first")
	}
}

// The gateway's readiness follows the fleet: with every shard drained the
// prober empties the rotation and /readyz flips to 503.
func TestGatewayReadyzFollowsFleet(t *testing.T) {
	svc, shard := newShard(t, simsvc.Config{}, "g711dec")
	_, gw := newGateway(t, []*httptest.Server{shard}, func(c *Config) {
		c.ProbeInterval = 20 * time.Millisecond
		c.BreakerThreshold = 1
		c.BreakerCooldown = time.Hour // no half-open re-admission during the test
	})

	var ready struct {
		Ready bool `json:"ready"`
	}
	if r := getJSON(t, gw.URL+"/readyz", &ready); r.StatusCode != 200 || !ready.Ready {
		t.Fatalf("gateway not ready over a healthy shard: %d %+v", r.StatusCode, ready)
	}

	svc.Drain()
	deadline := time.Now().Add(5 * time.Second)
	for {
		r := getJSON(t, gw.URL+"/readyz", &ready)
		if r.StatusCode == 503 && !ready.Ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("gateway still ready 5s after its only shard started draining")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// The /metrics schema is pinned: dashboards key off these fields, so
// renames and removals must be deliberate.
func TestGatewayMetricsSchema(t *testing.T) {
	_, gw := newGateway(t, newFleet(t, 1), nil)
	var m map[string]interface{}
	if r := getJSON(t, gw.URL+"/metrics", &m); r.StatusCode != 200 {
		t.Fatalf("metrics status %d", r.StatusCode)
	}
	want := []string{
		"requests", "routed", "scatterSuites", "scatterSweeps",
		"mergedPartials", "retries", "failovers", "hedges", "hedgeWins",
		"backendErrors", "backendDown", "errors",
		"programsRouted", "programReplicas", "replicaErrors",
		"backends", "healthyBackends", "uptimeSeconds",
	}
	for _, k := range want {
		if _, ok := m[k]; !ok {
			t.Errorf("/metrics missing field %q", k)
		}
	}
	if len(m) != len(want) {
		t.Errorf("/metrics has %d fields, schema pins %d: %v", len(m), len(want), m)
	}
	backends, ok := m["backends"].([]interface{})
	if !ok || len(backends) != 1 {
		t.Fatalf("backends is %T %v, want a 1-element array", m["backends"], m["backends"])
	}
	be, ok := backends[0].(map[string]interface{})
	if !ok {
		t.Fatalf("backends[0] is %T", backends[0])
	}
	for _, k := range []string{"name", "healthy", "consecutiveFails"} {
		if _, ok := be[k]; !ok {
			t.Errorf("backends[0] missing %q", k)
		}
	}
}

// submitProgram POSTs one assembly source to base's /v1/program (shard or
// gateway — same contract) and returns the accepted program.
func submitProgram(t *testing.T, base, tenant, src string) *workload.Program {
	t.Helper()
	body, _ := json.Marshal(simsvc.ProgramRequest{Lang: workload.LangAsm, Source: src})
	req, err := http.NewRequest("POST", base+"/v1/program", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit to %s: status %d: %s", base, resp.StatusCode, raw)
	}
	var p workload.Program
	if err := json.Unmarshal(raw, &p); err != nil {
		t.Fatalf("decoding accepted program: %v", err)
	}
	return &p
}

// suiteDocOf is suiteDoc over an explicit benchmark list.
func suiteDocOf(t *testing.T, base string, benches []string) ([]byte, uint64) {
	t.Helper()
	var resp simsvc.Response
	u := base + "/v1/suite?bench=" + url.QueryEscape(strings.Join(benches, ","))
	if r := getJSON(t, u, &resp); r.StatusCode != 200 {
		t.Fatalf("suite status %d", r.StatusCode)
	}
	if resp.Suite == nil {
		t.Fatal("suite response missing the suite document")
	}
	doc, err := json.MarshalIndent(resp.Suite, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return doc, resp.Insts
}

// The intake acceptance for the cluster layer: a fuzz-generated program
// submitted through the gateway is replicated fleet-wide, runs as a single
// routed job, and a mixed suite (built-ins + the user program) scattered
// over 1, 2 and 3 shards merges byte-identically to the single-process
// evaluation of the same list.
func TestClusterUserProgramByteIdenticalAcrossShardCounts(t *testing.T) {
	gen := diffsim.Generate(42, diffsim.Config{Ops: 60})
	src, err := gen.AsmSource()
	if err != nil {
		t.Fatal(err)
	}

	// Single-process reference: submit straight to one shard.
	_, single := newShard(t, simsvc.Config{})
	ref := submitProgram(t, single.URL, "fuzz", src)
	benches := append(append([]string{}, fleetBenches...), ref.Name)
	want, wantInsts := suiteDocOf(t, single.URL, benches)

	for _, shards := range []int{1, 2, 3} {
		servers := newFleet(t, shards)
		g, gw := newGateway(t, servers, nil)

		p := submitProgram(t, gw.URL, "fuzz", src)
		if p.Name != ref.Name {
			t.Fatalf("%d shards: content addressing disagrees: %q vs %q", shards, p.Name, ref.Name)
		}

		// Acceptance replicated the validated program to every shard.
		for i, srv := range servers {
			var got workload.Program
			if r := getJSON(t, srv.URL+"/v1/program/"+p.ID, &got); r.StatusCode != 200 {
				t.Fatalf("%d shards: shard %d missing the replica (%d)", shards, i, r.StatusCode)
			}
		}
		if shards > 1 {
			if snap := g.Metrics().Snapshot(); snap.ProgramReplicas == 0 {
				t.Fatalf("%d shards: no replicas pushed: %+v", shards, snap)
			}
		}

		// The user program runs as a normal routed job.
		var sim simsvc.Response
		if r := getJSON(t, gw.URL+"/v1/simulate?bench="+p.Name+"&model="+pipeline.NameBaseline32, &sim); r.StatusCode != 200 {
			t.Fatalf("%d shards: simulate user program: %d", shards, r.StatusCode)
		}
		if sim.Insts == 0 {
			t.Fatalf("%d shards: empty user-program result: %+v", shards, sim)
		}

		got, gotInsts := suiteDocOf(t, gw.URL, benches)
		if gotInsts != wantInsts {
			t.Fatalf("%d shards: instructions %d, single-process %d", shards, gotInsts, wantInsts)
		}
		if string(got) != string(want) {
			t.Fatalf("%d shards: mixed suite differs from the single-process evaluation (%d vs %d bytes)", shards, len(got), len(want))
		}
	}
}

// A gateway suite naming an unknown user program propagates the shard's
// typed 404 — never a failover storm or a breaker trip (content addressing
// means no other shard can know the name either).
func TestClusterUnknownUserBench(t *testing.T) {
	g, gw := newGateway(t, newFleet(t, 2), nil)
	var body map[string]string
	bogus := "user:" + strings.Repeat("ab", 32)
	if r := getJSON(t, gw.URL+"/v1/suite?bench=g711dec,"+bogus, &body); r.StatusCode != 404 {
		t.Fatalf("unknown user bench in suite: status %d, want 404 (%v)", r.StatusCode, body)
	}
	if !strings.Contains(body["error"], "unknown program") {
		t.Fatalf("error body %q does not name the problem", body["error"])
	}
	if g.healthyCount() != 2 {
		t.Fatal("an unknown user bench took a shard out of rotation")
	}
}

// A tenant that exhausts every shard's submission quota must be told to
// back off: the gateway's error writer keeps the shards' 429 status and
// Retry-After hint instead of collapsing the exhausted dispatch into a
// 502 fleet failure.
func TestGatewayShedKeepsRetryAfter(t *testing.T) {
	rec := httptest.NewRecorder()
	writeError(rec, fmt.Errorf("dispatch: %w",
		&httpError{Status: 429, Msg: "tenant quota", RetryAfter: 3 * time.Second}))
	if rec.Code != 429 {
		t.Fatalf("exhausted 429 dispatch answered %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", got)
	}
	rec = httptest.NewRecorder()
	writeError(rec, fmt.Errorf("dispatch: %w", &httpError{Status: 503, Msg: "overloaded"}))
	if rec.Code != 503 {
		t.Fatalf("exhausted 503 dispatch answered %d, want 503", rec.Code)
	}
}

// Bad requests are the client's problem, never a failover trigger: an
// unknown benchmark answers 400 from the gateway without marking any
// shard unhealthy.
func TestGatewayBadRequestPropagates(t *testing.T) {
	g, gw := newGateway(t, newFleet(t, 2), nil)
	var body map[string]string
	if r := getJSON(t, gw.URL+"/v1/simulate?bench=nope&model="+pipeline.NameBaseline32, &body); r.StatusCode != 400 {
		t.Fatalf("unknown benchmark: status %d, want 400", r.StatusCode)
	}
	if !strings.Contains(body["error"], "nope") {
		t.Fatalf("error body %q does not name the bad benchmark", body["error"])
	}
	if snap := g.Metrics().Snapshot(); snap.Failovers != 0 || snap.BackendDown != 0 {
		t.Fatalf("a 400 caused failovers (%d) or breaker trips (%d)", snap.Failovers, snap.BackendDown)
	}
	if g.healthyCount() != 2 {
		t.Fatal("a 400 took a shard out of rotation")
	}
}

// The gateway's replica store is a bounded LRU, not an append-only map: a
// long-lived gateway fed a stream of accepted programs (each retaining full
// source + assembly) must not grow monotonically. Evicted replicas are
// re-fetchable from the fleet, so the bound only costs a round trip.
func TestGatewayReplicaStoreBounded(t *testing.T) {
	g, _ := newGateway(t, newFleet(t, 1), func(c *Config) {
		c.ProgramReplicas = 4
		c.ProgramReplicaBytes = 1 << 20
	})

	for i := 0; i < 32; i++ {
		g.storeReplica(&workload.Program{
			Name:   fmt.Sprintf("user:%064d", i),
			Source: strings.Repeat("s", 100),
			Asm:    strings.Repeat("a", 100),
		})
	}
	count, bytes := g.replicas.Len(), g.replicas.Bytes()
	if count != 4 || len(g.replicas.Values()) != 4 {
		t.Fatalf("replica store holds %d entries (%d values), want capped at 4", count, len(g.replicas.Values()))
	}
	if bytes != 4*200 {
		t.Fatalf("replica store accounts %d bytes, want %d", bytes, 4*200)
	}
	// The survivors are the most recently stored, and evicted names are gone.
	if g.replicaOf("user:"+fmt.Sprintf("%064d", 0)) != nil {
		t.Fatal("evicted replica still resident")
	}
	if g.replicaOf("user:"+fmt.Sprintf("%064d", 31)) == nil {
		t.Fatal("most recent replica evicted")
	}

	// The byte budget evicts independently of the count budget.
	g.storeReplica(&workload.Program{
		Name:   "user:big",
		Source: strings.Repeat("s", 1<<20),
	})
	count, bytes = g.replicas.Len(), g.replicas.Bytes()
	if count != 1 || bytes != 1<<20 {
		t.Fatalf("byte budget: %d entries / %d bytes resident, want the one over-budget program alone", count, bytes)
	}
}

// With a fleet install token configured, replica pushes authenticate: a
// gateway holding the secret replicates across token-gated shards, while a
// gateway without it has its pushes refused (and the refusal is permanent —
// no failover storm) yet still serves the program from the accepting shard.
func TestClusterInstallTokenReplication(t *testing.T) {
	gen := diffsim.Generate(7, diffsim.Config{Ops: 40})
	src, err := gen.AsmSource()
	if err != nil {
		t.Fatal(err)
	}

	newTokenFleet := func(n int) []*httptest.Server {
		servers := make([]*httptest.Server, n)
		for i := range servers {
			_, servers[i] = newShard(t, simsvc.Config{InstallToken: "s3cret"})
		}
		return servers
	}

	// Matching token: acceptance replicates to every shard.
	servers := newTokenFleet(2)
	g, gw := newGateway(t, servers, func(c *Config) { c.InstallToken = "s3cret" })
	p := submitProgram(t, gw.URL, "fuzz", src)
	for i, srv := range servers {
		var got workload.Program
		if r := getJSON(t, srv.URL+"/v1/program/"+p.ID, &got); r.StatusCode != 200 {
			t.Fatalf("shard %d missing the replica (%d)", i, r.StatusCode)
		}
	}
	if snap := g.Metrics().Snapshot(); snap.ProgramReplicas == 0 || snap.ReplicaErrors != 0 {
		t.Fatalf("tokened replication: %+v", snap)
	}

	// Missing token: every push is refused with 401, counted, and the
	// shards stay in rotation. Only the shard that accepted the submission
	// holds the program — replication did not happen.
	servers = newTokenFleet(2)
	g, gw = newGateway(t, servers, nil)
	p = submitProgram(t, gw.URL, "fuzz", src)
	if snap := g.Metrics().Snapshot(); snap.ProgramReplicas != 0 || snap.ReplicaErrors == 0 {
		t.Fatalf("tokenless replication: %+v", snap)
	}
	if g.healthyCount() != 2 {
		t.Fatal("a refused replica push took a shard out of rotation")
	}
	holders := 0
	for _, srv := range servers {
		if r := getJSON(t, srv.URL+"/v1/program/"+p.ID, nil); r.StatusCode == 200 {
			holders++
		}
	}
	if holders != 1 {
		t.Fatalf("%d shards hold the program, want the accepting owner alone", holders)
	}
}

// TestClusterTraceDirWarmStart pins the fleet warm-start story end to end:
// a second shard sharing the first one's trace dir answers the full suite
// over HTTP without a single interpreter run — every benchmark streams from
// the first shard's mapped SIGCAP02 spills — and the suite document stays
// byte-identical.
func TestClusterTraceDirWarmStart(t *testing.T) {
	dir := t.TempDir()
	cold, coldSrv := newShard(t, simsvc.Config{TraceDir: dir})
	want, wantInsts := suiteDoc(t, coldSrv.URL)
	if m := cold.Metrics().Snapshot(); m.Captures == 0 || m.TraceSpills == 0 {
		t.Fatalf("cold shard: captures=%d spills=%d, want both > 0", m.Captures, m.TraceSpills)
	}

	warm, warmSrv := newShard(t, simsvc.Config{TraceDir: dir})
	got, gotInsts := suiteDoc(t, warmSrv.URL)
	m := warm.Metrics().Snapshot()
	if m.Captures != 0 {
		t.Fatalf("warm shard ran %d interpreter captures, want 0", m.Captures)
	}
	if int(m.TraceMapLoads) != len(fleetBenches) {
		t.Fatalf("warm shard map loads = %d, want %d (one mapped spill per benchmark)",
			m.TraceMapLoads, len(fleetBenches))
	}
	if gotInsts != wantInsts {
		t.Fatalf("warm shard instructions %d, cold %d", gotInsts, wantInsts)
	}
	if string(got) != string(want) {
		t.Fatalf("warm shard suite document differs from cold shard (%d vs %d bytes)", len(got), len(want))
	}
}
