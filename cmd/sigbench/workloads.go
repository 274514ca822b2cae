package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/simsvc"
	"repro/internal/trace"
)

// Workloads, in the order the benchmark runs them. Why each exists is in
// README.md and BENCHMARK.json.
// reps is how many times a run sets its fleet up: setup_s is the median,
// and the last fleet serves the timed phase.
var workloads = []struct {
	name string
	reps int
	run  func(context.Context, *runner) error
}{
	{"simulate-resident", 3, func(ctx context.Context, r *runner) error { return runSimulate(ctx, r, false) }},
	{"simulate-mapped", 3, func(ctx context.Context, r *runner) error { return runSimulate(ctx, r, true) }},
	{"suite-gateway", 3, runSuiteGateway},
}

// Fixed work sizes.
const (
	// simulateClients is the closed-loop client count of the simulate
	// workloads: one per core of the 2-core reference machine.
	simulateClients = 2
	// gatewayShards is the suite-gateway fleet size.
	gatewayShards = 3
	// primeModel is servable but outside the registered catalog, so priming
	// with it profiles the recoder and fills captures and activity memos
	// without leaving any timed key in the result cache.
	primeModel = "bytefetch8"
	// sigserveTimeout is sigserve's -timeout default.
	sigserveTimeout = 5 * time.Minute
)

// runner is one workload run: its inputs and what it measured.
type runner struct {
	workload string
	seed     int64
	seconds  int               // timed-phase length; 0 = one pass of the plan
	benches  []bench.Benchmark // what the workload asks for; shards serve the whole suite
	reps     int               // set-up repetitions; 0 = the workload's own
	rec      *recorder         // nil when untraced
	golden   *golden
	dir      string // scratch directory of this run

	mu        sync.Mutex
	setups    []time.Duration
	lat       []time.Duration
	work      float64 // Σ simulated instructions × pipeline models evaluated
	wall      time.Duration
	attempted int
	failed    int
	firstErr  error
	svc       map[string]float64 // simsvc counter deltas over the timed phase, all shards
	mapLoads  float64            // simsvc traceMapLoads over the serving fleet's lifetime
	gw        map[string]float64 // gateway counter deltas over the timed phase
	peakRSS   float64            // MiB, read when the timed phase ends
	partials  []partialSeen      // /v1/partial requests, in arrival order
}

type partialSeen struct{ shard, benches string }

func (r *runner) observePartial(shard, benches string) {
	r.mu.Lock()
	r.partials = append(r.partials, partialSeen{shard, benches})
	r.mu.Unlock()
}

func (r *runner) names() []string {
	out := make([]string, len(r.benches))
	for i, b := range r.benches {
		out[i] = b.Name
	}
	return out
}

// fleet is the in-process serving system of one workload: sigserve shards
// (simsvc.NewHandler) and optionally a siggate gateway (cluster.NewHandler),
// each on its own httptest listener, reached by fixed host names so ring
// ownership is the same on every run.
type fleet struct {
	shards   []*shard
	gw       *cluster.Gateway
	gwSrv    *httptest.Server
	gwClient *http.Client
	client   *http.Client // the benchmark's own client
	addrs    map[string]string
	traceDir string
}

type shard struct {
	name string
	svc  *simsvc.Service
	srv  *httptest.Server
}

// newFleet starts n shards named shard0..n-1 with workers workers each (0 =
// sigserve's default) on traceDir, and a gateway named "gateway" in front of
// them when gateway is set.
func (r *runner) newFleet(n, workers int, traceDir string, gateway bool) *fleet {
	f := &fleet{addrs: make(map[string]string), traceDir: traceDir}
	var backends []string
	for i := 0; i < n; i++ {
		name := "shard" + strconv.Itoa(i)
		svc := simsvc.New(simsvc.Config{
			Workers:          workers,
			Timeout:          sigserveTimeout,
			Retries:          simsvc.DefaultRetries,
			BreakerThreshold: simsvc.DefaultBreakerThreshold,
			TraceDir:         traceDir,
		})
		h := middleware(r.rec, "simsvc.handler", name, r.observePartial, simsvc.NewHandler(svc))
		sh := &shard{name: name, svc: svc, srv: httptest.NewServer(h)}
		f.shards = append(f.shards, sh)
		f.addrs[name] = sh.srv.Listener.Addr().String()
		backends = append(backends, "http://"+name)
	}
	if gateway {
		// The gateway's prober dials at once, so every address is in place
		// before the gateway exists.
		f.gwSrv = httptest.NewUnstartedServer(nil)
		f.addrs["gateway"] = f.gwSrv.Listener.Addr().String()
		f.gwClient = &http.Client{Transport: f.transport()}
		// Hedging is off: every shard is busy with its own partition, so a
		// hedge only doubles a partition's work on two cores, and whether it
		// fires depends on whether the partition outlasts the hedge delay on
		// this run's host speed. Cannot fail: the backend list is non-empty
		// and duplicate-free.
		f.gw, _ = cluster.New(cluster.Config{Backends: backends, Client: f.gwClient, HedgeAfter: -1})
		f.gwSrv.Config.Handler = middleware(r.rec, "cluster.gateway", "gateway", nil, cluster.NewHandler(f.gw))
		f.gwSrv.Start()
	}
	f.client = &http.Client{Transport: f.transport()}
	return f
}

// transport dials the fleet's host names to their listeners. addrs is
// complete before any request is sent and read-only afterwards.
func (f *fleet) transport() *http.Transport {
	return &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			host, _, err := net.SplitHostPort(addr)
			if err != nil {
				return nil, err
			}
			real, ok := f.addrs[host]
			if !ok {
				return nil, fmt.Errorf("sigbench: no listener named %q", host)
			}
			var d net.Dialer
			return d.DialContext(ctx, network, real)
		},
		MaxIdleConnsPerHost: 8,
	}
}

func (f *fleet) close() {
	if f.gwSrv != nil {
		f.gwSrv.Close()
		f.gw.Close()
		f.gwClient.CloseIdleConnections()
	}
	f.client.CloseIdleConnections()
	for _, sh := range f.shards {
		sh.srv.Close()
		sh.svc.Close()
	}
	if f.traceDir != "" {
		os.RemoveAll(f.traceDir)
	}
}

// svcCounts sums the shards' simsvc counters the per-layer metrics use.
func (f *fleet) svcCounts() map[string]float64 {
	out := make(map[string]float64)
	for _, sh := range f.shards {
		s := sh.svc.Metrics().Snapshot()
		for k, v := range map[string]uint64{
			"hits": s.CacheHits, "misses": s.CacheMisses,
			"traceHits": s.TraceCacheHits, "traceMisses": s.TraceCacheMiss,
			"captures": s.Captures, "mapLoads": s.TraceMapLoads,
			"executions": s.Executions, "shed": s.Shed, "retries": s.Retries,
		} {
			out[k] += float64(v)
		}
	}
	return out
}

func (f *fleet) gwCounts() map[string]float64 {
	if f.gw == nil {
		return map[string]float64{}
	}
	s := f.gw.Metrics().Snapshot()
	return map[string]float64{
		"partials": float64(s.MergedPartials), "failovers": float64(s.Failovers), "hedges": float64(s.Hedges),
	}
}

// delta returns after − before for every key of after.
func delta(after, before map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// get sends one GET under a span named http.client and decodes a 200 answer
// into out. Any other status is an error.
func (r *runner) get(ctx context.Context, c *http.Client, target string, parent int64, out any) (time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return 0, err
	}
	sp := r.rec.start("http.client", parent, "", strings.TrimPrefix(target, "http://"))
	if sp != nil {
		req.Header.Set(spanHeader, strconv.FormatInt(sp.ID, 10))
	}
	t := time.Now()
	err = doJSON(c, req, out)
	d := time.Since(t)
	r.rec.end(sp)
	return d, err
}

func doJSON(c *http.Client, req *http.Request, out any) error {
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %.200s", req.URL, resp.Status, body)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("GET %s: decoding answer: %w", req.URL, err)
	}
	return nil
}

// each runs fn(0..n-1) from clients goroutines and returns the first error.
func each(n, clients int, fn func(i int) error) error {
	var next atomic.Int64
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				if err := fn(i); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// setup brings a fleet up r.reps times, timing each, and returns the last.
// Earlier ones are torn down and their memory returned to the OS first, so
// every repetition starts alike and peak RSS is one fleet's.
func (r *runner) setup(up func() (*fleet, error)) (*fleet, error) {
	var f *fleet
	for i := 0; i < r.reps; i++ {
		if f != nil {
			f.close()
			debug.FreeOSMemory()
		}
		t := time.Now()
		var err error
		if f, err = up(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.setups = append(r.setups, time.Since(t))
	}
	return f, nil
}

// timed is the timed phase: the given number of closed-loop clients run op
// on consecutive indices in whole cycles of n, until the cycle in progress
// when r.seconds have passed is done, or, with r.seconds == 0, for one
// cycle. Every run thus measures the same mix of ops, whatever the seed's
// order. op returns the latency it measured and the simulated work its
// answer reports.
func (r *runner) timed(ctx context.Context, clients, n int, op func(i int) (time.Duration, float64, error)) {
	r.rec.setOn(true)
	defer r.rec.setOn(false)
	var next, limit atomic.Int64
	limit.Store(math.MaxInt64)
	if r.seconds == 0 {
		limit.Store(int64(n))
	}
	start := time.Now()
	deadline := start.Add(time.Duration(r.seconds) * time.Second)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if r.seconds > 0 && !time.Now().Before(deadline) {
					// The first index drawn after the deadline fixes the end
					// of its cycle.
					limit.CompareAndSwap(math.MaxInt64, (i+int64(n)-1)/int64(n)*int64(n))
				}
				if ctx.Err() != nil || i >= limit.Load() {
					return
				}
				lat, work, err := op(int(i))
				r.record(lat, work, err)
			}
		}()
	}
	wg.Wait()
	r.wall = time.Since(start)
	r.peakRSS = peakRSSMiB()
}

func (r *runner) record(lat time.Duration, work float64, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
		return
	}
	r.lat = append(r.lat, lat)
	r.work += work
}

func (r *runner) reqID(i int) string { return fmt.Sprintf("%s-%d", r.workload, i) }

// suiteWork is a suite answer's simulated work: each benchmark's
// instructions times the pipeline models it went through.
func suiteWork(resp *simsvc.Response) float64 {
	var w float64
	if resp.Suite != nil {
		for _, b := range resp.Suite.Benchmarks {
			w += float64(b.Insts) * float64(len(b.CPI))
		}
	}
	return w
}

// simKey is one simulate request of the key cycle.
type simKey struct {
	bench, model string
	gran         int
}

func (k simKey) String() string { return fmt.Sprintf("%s|%s|%d", k.bench, k.model, k.gran) }

func (k simKey) query() string {
	return url.Values{"bench": {k.bench}, "model": {k.model}, "gran": {strconv.Itoa(k.gran)}}.Encode()
}

// simulateKeys is every (benchmark, registered model, granularity) key in a
// seeded order. The cycle is longer than the result LRU, so in a closed loop
// no request finds its answer cached.
func (r *runner) simulateKeys() []simKey {
	var keys []simKey
	for _, b := range r.benches {
		for _, m := range pipeline.AllNames() {
			for gran := 1; gran <= 2; gran++ {
				keys = append(keys, simKey{b.Name, m, gran})
			}
		}
	}
	rng := rand.New(rand.NewSource(r.seed))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// writeTraceDir captures the workload's benchmarks into a fresh SIGCAP02
// trace directory, as a shard with -trace-dir would have left it.
func (r *runner) writeTraceDir(ctx context.Context) (string, error) {
	dir, err := os.MkdirTemp(r.dir, "tracedir-")
	if err != nil {
		return "", err
	}
	caps, err := experiments.CaptureSuite(ctx, r.benches, runtime.GOMAXPROCS(0))
	if err != nil {
		return "", err
	}
	for _, cp := range caps {
		if _, err := trace.WriteCaptureFile(dir, cp); err != nil {
			return "", err
		}
	}
	return dir, nil
}

// prime asks shard base for every benchmark at both granularities under
// primeModel.
func (r *runner) prime(ctx context.Context, c *http.Client, base string) error {
	return each(2*len(r.benches), simulateClients, func(i int) error {
		k := simKey{r.benches[i/2].Name, primeModel, 1 + i%2}
		_, err := r.get(ctx, c, base+"/v1/simulate?"+k.query(), 0, nil)
		return err
	})
}

// runSimulate: one shard whose captures and activity memos are warm answers
// single-model simulate requests, none of them cached, from two clients.
// With mapped, the shard starts on a written trace dir, so every replay
// streams and decodes SIGCAP02 frames instead of reading resident columns.
func runSimulate(ctx context.Context, r *runner, mapped bool) error {
	f, err := r.setup(func() (*fleet, error) {
		dir := ""
		if mapped {
			var err error
			if dir, err = r.writeTraceDir(ctx); err != nil {
				return nil, err
			}
		}
		f := r.newFleet(1, 0, dir, false)
		if err := r.prime(ctx, f.client, "http://shard0"); err != nil {
			f.close()
			return nil, err
		}
		return f, nil
	})
	if err != nil {
		return err
	}
	defer f.close()
	keys := r.simulateKeys()
	before := f.svcCounts()
	r.timed(ctx, simulateClients, len(keys), func(i int) (time.Duration, float64, error) {
		k := keys[i%len(keys)]
		root := r.rec.start("op", 0, r.reqID(i), "")
		defer r.rec.end(root)
		var resp simsvc.Response
		lat, err := r.get(ctx, f.client, "http://shard0/v1/simulate?"+k.query(), root.id(), &resp)
		if err != nil {
			return 0, 0, err
		}
		return lat, float64(resp.Insts), r.golden.checkSimulate(k.String(), &resp)
	})
	after := f.svcCounts()
	r.svc = delta(after, before)
	r.mapLoads = after["mapLoads"]
	return nil
}

// runSuiteGateway: three single-worker shards on one trace dir behind a
// gateway answer whole suites in seeded benchmark orders, scattering
// /v1/partial by ring ownership and merging the partials. The first op
// shows the ring's partition, which later orders are drawn against.
func runSuiteGateway(ctx context.Context, r *runner) error {
	f, err := r.setup(func() (*fleet, error) {
		dir, err := r.writeTraceDir(ctx)
		if err != nil {
			return nil, err
		}
		// One worker per shard: three default shards would run six jobs on
		// two cores and measure the scheduler.
		f := r.newFleet(gatewayShards, 1, dir, true)
		err = each(gatewayShards, gatewayShards, func(i int) error {
			k := simKey{r.benches[0].Name, primeModel, 1}
			_, err := r.get(ctx, f.client, "http://"+f.shards[i].name+"/v1/simulate?"+k.query(), 0, nil)
			return err
		})
		if err != nil {
			f.close()
			return nil, err
		}
		return f, nil
	})
	if err != nil {
		return err
	}
	defer f.close()
	plan := &suitePlan{rng: rand.New(rand.NewSource(r.seed)), names: r.names()}
	sBefore, gBefore := f.svcCounts(), f.gwCounts()
	r.timed(ctx, 1, 1, func(i int) (time.Duration, float64, error) {
		order := plan.next(r.owners())
		root := r.rec.start("op", 0, r.reqID(i), "")
		defer r.rec.end(root)
		var resp simsvc.Response
		q := "/v1/suite?bench=" + url.QueryEscape(strings.Join(order, ","))
		lat, err := r.get(ctx, f.client, "http://gateway"+q, root.id(), &resp)
		if err != nil {
			return 0, 0, err
		}
		return lat, suiteWork(&resp), r.golden.checkSuite(&resp, order)
	})
	after := f.svcCounts()
	r.svc = delta(after, sBefore)
	r.mapLoads = after["mapLoads"]
	r.gw = delta(f.gwCounts(), gBefore)
	return nil
}

// owners maps each benchmark to the shard that first received a partial
// naming it: its ring owner, since a hedge or failover only ever follows
// the owner's dispatch.
func (r *runner) owners() map[string]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]string)
	for _, p := range r.partials {
		for _, b := range strings.Split(p.benches, ",") {
			if _, ok := out[b]; !ok {
				out[b] = p.shard
			}
		}
	}
	return out
}

// suitePlan draws seeded benchmark orders for suite-gateway. A shard caches
// a partial under its benchmarks in request order, so an order is drawn
// again while any shard's share of it, under the ring ownership seen so far,
// repeats an earlier op's. A share of one benchmark necessarily repeats;
// after maxDraws the last draw is used as it is.
type suitePlan struct {
	rng   *rand.Rand
	names []string
	past  [][]string
}

const maxDraws = 1000

// shares returns each shard's sub-order of order.
func shares(order []string, owners map[string]string) []string {
	by := make(map[string][]string)
	var shards []string
	for _, n := range order {
		o := owners[n]
		if _, ok := by[o]; !ok {
			shards = append(shards, o)
		}
		by[o] = append(by[o], n)
	}
	out := make([]string, len(shards))
	for i, s := range shards {
		out[i] = s + ":" + strings.Join(by[s], ",")
	}
	return out
}

func (p *suitePlan) next(owners map[string]string) []string {
	seen := make(map[string]bool)
	for _, o := range p.past {
		for _, k := range shares(o, owners) {
			seen[k] = true
		}
	}
	var order []string
	for d := 0; d < maxDraws; d++ {
		order = make([]string, len(p.names))
		for i, j := range p.rng.Perm(len(p.names)) {
			order[i] = p.names[j]
		}
		fresh := true
		for _, k := range shares(order, owners) {
			fresh = fresh && !seen[k]
		}
		if fresh {
			break
		}
	}
	p.past = append(p.past, order)
	return order
}
