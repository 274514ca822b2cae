package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/lru"
	"repro/internal/simsvc"
	"repro/internal/workload"
)

// Config parameterizes a Gateway. The zero value of every field except
// Backends selects a sensible default.
type Config struct {
	// Backends lists the sigserve shards fronted by the gateway, as base
	// URLs ("http://host:port" or bare "host:port"). Required.
	Backends []string

	// Replicas is the virtual-node count per backend on the hash ring.
	Replicas int

	// Retries is how many times a single dispatch re-asks the same shard
	// after a 429/503 before failing over (default 2).
	Retries int

	// RetryAfterCap bounds how long the gateway honors a shard's
	// Retry-After hint per retry (default 5s) — a shard deep in overload
	// may suggest 30s, but the gateway would rather fail over.
	RetryAfterCap time.Duration

	// HedgeAfter is how long a dispatch waits on its primary shard before
	// speculatively duplicating the work onto the next ring choice
	// (default 2s; <0 disables hedging).
	HedgeAfter time.Duration

	// ProbeInterval is the active /readyz probing period (default 2s;
	// <0 disables the prober).
	ProbeInterval time.Duration

	// BreakerThreshold is the consecutive-failure count that takes a
	// backend out of rotation (default 3); BreakerCooldown is how long it
	// stays out before one half-open trial is allowed (default 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// SweepInflight bounds how many (benchmark × model) jobs a scattered
	// sweep keeps in flight across the fleet (default 2 per backend).
	SweepInflight int

	// ProgramReplicas and ProgramReplicaBytes bound the gateway's store of
	// accepted-program replicas by count and bytes (defaults mirror the
	// shard registry: 256 programs, 16 MiB). Evicted replicas are simply
	// re-fetched from the content-hash owner shard on a later lookup, so
	// the bound costs a round trip, never an answer.
	ProgramReplicas     int
	ProgramReplicaBytes int64

	// InstallToken, when set, is sent as X-Install-Token on every replica
	// push so shards can gate POST /v1/program/install behind the shared
	// fleet secret. Must match the shards' -program-install-token.
	InstallToken string

	// Client is the HTTP client used for all backend traffic. Defaults to
	// a dedicated client with no overall timeout (suite evaluations are
	// long; cancellation comes from request contexts).
	Client *http.Client
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Replicas <= 0 {
		out.Replicas = defaultReplicas
	}
	if out.Retries == 0 {
		out.Retries = 2
	}
	if out.RetryAfterCap <= 0 {
		out.RetryAfterCap = 5 * time.Second
	}
	if out.HedgeAfter == 0 {
		out.HedgeAfter = 2 * time.Second
	}
	if out.ProbeInterval == 0 {
		out.ProbeInterval = 2 * time.Second
	}
	if out.BreakerThreshold <= 0 {
		out.BreakerThreshold = 3
	}
	if out.BreakerCooldown <= 0 {
		out.BreakerCooldown = 5 * time.Second
	}
	if out.SweepInflight <= 0 {
		out.SweepInflight = 2 * len(out.Backends)
		if out.SweepInflight < 4 {
			out.SweepInflight = 4
		}
	}
	if out.ProgramReplicas <= 0 {
		out.ProgramReplicas = workload.DefaultMaxPrograms
	}
	if out.ProgramReplicaBytes <= 0 {
		out.ProgramReplicaBytes = workload.DefaultMaxStoredBytes
	}
	if out.Client == nil {
		out.Client = &http.Client{}
	}
	return out
}

// Gateway fronts a fleet of sigserve shards: it routes single simulation
// jobs by ring ownership for cache locality and scatter/gathers suite and
// sweep evaluations across every shard, merging the partials into
// responses indistinguishable from a single process's.
type Gateway struct {
	cfg      Config
	backends []*backend
	ring     *ring
	client   *http.Client
	metrics  Metrics
	start    time.Time

	done chan struct{}
	wg   sync.WaitGroup

	catMu sync.Mutex
	cat   *catalog

	// replicas is the gateway's replica store: programs accepted through
	// this gateway, each with the set of backends that confirmed its
	// install (keyed by backend base URL). Scatter paths re-push
	// unconfirmed replicas so a shard that was down at accept time still
	// gets the program before work lands on it. The store is an lru.Cache
	// bounded by Config.ProgramReplicas and ProgramReplicaBytes: replicas
	// carry full source + assembly, so an unbounded store would leak
	// monotonically on a long-lived gateway. An evicted replica is
	// re-fetched from the fleet on demand. progMu guards each replica's
	// fields (its program and confirmations) and makes storeReplica's
	// look-up-then-update atomic; the cache locks itself.
	progMu   sync.Mutex
	replicas *lru.Cache[*replica]
}

// replica is one stored accepted program plus its per-backend install
// confirmations.
type replica struct {
	p         *workload.Program
	confirmed map[string]bool
}

// New builds a Gateway over cfg.Backends and starts the readiness prober.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("cluster: no backends configured")
	}
	g := &Gateway{
		cfg:      cfg,
		client:   cfg.Client,
		start:    time.Now(),
		done:     make(chan struct{}),
		replicas: lru.New[*replica](cfg.ProgramReplicas, cfg.ProgramReplicaBytes),
	}
	names := make([]string, 0, len(cfg.Backends))
	seen := make(map[string]bool, len(cfg.Backends))
	for _, raw := range cfg.Backends {
		b, err := newBackend(raw)
		if err != nil {
			return nil, err
		}
		if seen[b.base] {
			return nil, fmt.Errorf("cluster: duplicate backend %s", b.name)
		}
		seen[b.base] = true
		g.backends = append(g.backends, b)
		names = append(names, b.name)
	}
	g.ring = newRing(names, cfg.Replicas)
	if cfg.ProbeInterval > 0 {
		g.wg.Add(1)
		go g.probeLoop()
	}
	return g, nil
}

// Close stops the readiness prober. In-flight requests are not awaited;
// callers drain their HTTP server first.
func (g *Gateway) Close() {
	close(g.done)
	g.wg.Wait()
}

// Metrics exposes the gateway counter registry.
func (g *Gateway) Metrics() *Metrics { return &g.metrics }

// Uptime reports how long the gateway has been running.
func (g *Gateway) Uptime() time.Duration { return time.Since(g.start) }

// Backends reports the per-backend health view for /metrics and /readyz.
func (g *Gateway) Backends() []interface{} {
	out := make([]interface{}, 0, len(g.backends))
	for _, b := range g.backends {
		out = append(out, b.status())
	}
	return out
}

// catalog is the fleet's served suite and model set, fetched once from any
// shard and cached: every shard serves the same suite (the merge invariant
// depends on it), so any answer is the fleet's answer.
type catalog struct {
	benches  []benchEntry
	order    []string // benchmark names in serving order
	models   []string
	benchSet map[string]bool
	modelSet map[string]bool
}

// benchEntry mirrors the /v1/benchmarks list items.
type benchEntry struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// loadCatalog returns the cached catalog, fetching it from the fleet on
// first use.
func (g *Gateway) loadCatalog(ctx context.Context) (*catalog, error) {
	g.catMu.Lock()
	defer g.catMu.Unlock()
	if g.cat != nil {
		return g.cat, nil
	}
	cat, err := dispatch(ctx, g, "catalog", func(ctx context.Context, b *backend) (*catalog, error) {
		var benches []benchEntry
		if err := g.getJSON(ctx, b, "/v1/benchmarks", &benches); err != nil {
			return nil, err
		}
		var models []string
		if err := g.getJSON(ctx, b, "/v1/models", &models); err != nil {
			return nil, err
		}
		c := &catalog{
			benches:  benches,
			models:   models,
			benchSet: make(map[string]bool, len(benches)),
			modelSet: make(map[string]bool, len(models)),
		}
		for _, be := range benches {
			c.order = append(c.order, be.Name)
			c.benchSet[be.Name] = true
		}
		for _, m := range models {
			c.modelSet[m] = true
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	if len(cat.order) == 0 {
		return nil, fmt.Errorf("cluster: fleet serves an empty benchmark suite")
	}
	g.cat = cat
	return cat, nil
}

// invalidf builds the 400-mapped error shared with the shard API.
func invalidf(format string, args ...interface{}) error {
	return &simsvc.InvalidRequestError{Reason: fmt.Sprintf(format, args...)}
}
