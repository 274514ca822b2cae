package workload

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/lru"
)

// Registry is the content-addressed store of accepted user programs. It is
// safe for concurrent use. Resident programs live in an lru.Cache bounded
// by MaxPrograms and MaxStoredBytes; evicted programs spill to SpillDir
// (when configured) and are reloaded — hash-verified — on demand.
// Concurrent submissions of identical content share one run of the
// validation wall through an lru.Group. Quarantined IDs are remembered
// forever (within the process) and never re-executed.
type Registry struct {
	opts Options

	mu          sync.Mutex
	progs       *lru.Cache[*Program] // by ID; its evictions are handled under mu
	quarantined map[string]string    // id -> reason
	tenants     map[string]*tenantState
	submits     lru.Group[*Program] // one wall run per ID in flight
	spill       *spillStore

	// Global install-rate bucket (InstallPerMin): replica installs are not
	// tenant traffic, so they are metered registry-wide.
	installTokens float64
	installLast   time.Time

	accepted, rejected, quarantines uint64
}

type tenantState struct {
	programs int
	// Token bucket for the submission rate limit.
	tokens float64
	last   time.Time
}

// NewRegistry builds a registry with opts (zero fields defaulted).
func NewRegistry(opts Options) (*Registry, error) {
	opts = opts.withDefaults()
	r := &Registry{
		opts:          opts,
		progs:         lru.New[*Program](opts.MaxPrograms, opts.MaxStoredBytes),
		quarantined:   make(map[string]string),
		tenants:       make(map[string]*tenantState),
		installTokens: float64(opts.InstallPerMin),
		installLast:   opts.Now(),
	}
	if opts.SpillDir != "" {
		st, err := newSpillStore(opts.SpillDir)
		if err != nil {
			return nil, fmt.Errorf("workload: spill dir: %w", err)
		}
		r.spill = st
	}
	return r, nil
}

// ProgramID is the content address: sha256 over (language, source).
func ProgramID(lang, source string) string {
	h := sha256.New()
	h.Write([]byte(lang))
	h.Write([]byte{0})
	h.Write([]byte(source))
	return hex.EncodeToString(h.Sum(nil))
}

// Submit pushes source through the validation wall and, on success,
// registers it under "user:" + its content hash. Identical content is
// deduplicated (including concurrently), so resubmitting an accepted
// program is cheap and never re-executes it.
func (r *Registry) Submit(ctx context.Context, tenant, lang, source string) (*Program, error) {
	if tenant == "" {
		tenant = "anonymous"
	}
	if lang == "" {
		lang = LangAsm
	}
	id := ProgramID(lang, source)

	r.mu.Lock()
	if reason, ok := r.quarantined[id]; ok {
		r.mu.Unlock()
		return nil, &QuarantinedError{ID: id, Reason: reason}
	}
	// The rate limit charges every submission attempt — the wall itself is
	// the expensive thing a flooding tenant burns.
	if err := r.takeTokenLocked(tenant); err != nil {
		r.rejected++
		r.mu.Unlock()
		return nil, err
	}
	r.mu.Unlock()

	for {
		prog, shared, err := r.submits.Do(ctx, id, func() (*Program, error) {
			return r.lead(ctx, id, tenant, lang, source)
		})
		// A leader refused for its own tenant's program cap says nothing
		// about this tenant's: try again, leading if nobody else is.
		var qe *QuotaError
		if shared && errors.As(err, &qe) && qe.Tenant != tenant {
			continue
		}
		return prog, err
	}
}

// lead is the one submission of id that runs the wall; identical
// submissions arriving meanwhile wait for its outcome. A resident program
// is returned as is.
func (r *Registry) lead(ctx context.Context, id, tenant, lang, source string) (*Program, error) {
	r.mu.Lock()
	// A previous leader may have finished since Submit's quarantine check.
	if reason, ok := r.quarantined[id]; ok {
		r.mu.Unlock()
		return nil, &QuarantinedError{ID: id, Reason: reason}
	}
	if p, ok := r.progs.Get(id); ok {
		r.mu.Unlock()
		return p, nil
	}
	// Count quota before running the wall so a tenant at the cap cannot
	// burn probation cycles either. Waiters are not charged: the program
	// lands on the leader's account.
	ts := r.tenant(tenant)
	if ts.programs >= r.opts.TenantPrograms {
		r.rejected++
		r.mu.Unlock()
		return nil, &QuotaError{Tenant: tenant,
			Reason: fmt.Sprintf("%d programs registered, limit %d", ts.programs, r.opts.TenantPrograms)}
	}
	r.mu.Unlock()

	prog, err := r.runWall(ctx, id, tenant, lang, source)

	// The outcome is fully stamped (quarantine ID and bookkeeping) before
	// Do hands it to waiters, so no later mutation of the shared error
	// races them.
	r.mu.Lock()
	defer r.mu.Unlock()
	if err == nil {
		r.installLocked(prog)
		r.accepted++
		return prog, nil
	}
	switch qe := err.(type) {
	case *QuarantinedError:
		qe.ID = id
		r.quarantined[id] = qe.Reason
		r.quarantines++
	case *RejectedError, *SourceError:
		r.rejected++
	}
	return nil, err
}

// runWall executes layers 1–5 outside the registry lock.
func (r *Registry) runWall(ctx context.Context, id, tenant, lang, source string) (*Program, error) {
	prog, asmSrc, err := build(lang, source, r.opts)
	if err != nil {
		return nil, err
	}
	out, err := probation(ctx, prog, r.opts)
	if err != nil {
		return nil, err
	}
	return &Program{
		ID:        id,
		Name:      "user:" + id,
		Tenant:    tenant,
		Lang:      lang,
		Source:    source,
		Asm:       asmSrc,
		Insts:     out.insts,
		Checksum:  out.checksum,
		OutBytes:  out.outBytes,
		SpotSteps: out.spotSteps,
		MaxInsts:  r.opts.MaxInsts,
	}, nil
}

// Install registers an already-validated program (cross-shard replication:
// the peer that accepted it ran the wall; the content hash is re-verified
// so a corrupt or forged replica cannot smuggle different bytes under an
// accepted name) and returns the resident copy. Nothing else in the replica
// is trusted:
//
//   - The compiled form is re-derived from the content-addressed source
//     through the same compile + static layers, so a replica whose Asm
//     field disagrees with its Source runs what the source says, not what
//     the forger sent.
//   - The runaway budget is never the replica's claim: MaxInsts is clamped
//     to this registry's own probation budget, and a claimed Insts above it
//     is refused outright — otherwise a self-"accepted" replica could grant
//     itself an effectively unbounded instruction budget and turn its first
//     run into a CPU/memory burn. With the budget pinned, a lie in the
//     remaining observations (Checksum, OutBytes, ...) surfaces as a
//     contained checksum-mismatch failure on first run, never as extra
//     cost.
//   - Installs ride admission control like any other write: a global
//     InstallPerMin bucket is charged before the rebuild (the compile is
//     the CPU an install flood would otherwise burn unmetered) and the
//     original tenant's program cap is enforced, so replication cannot
//     exceed the quotas Submit guards.
//
// Fleet budgets are assumed uniform (the same reason scattered suites
// require identical served suites): a replica accepted under a larger
// MaxInsts than this shard's is refused rather than trimmed.
func (r *Registry) Install(p *Program) (*Program, error) {
	if p == nil || p.ID != ProgramID(p.Lang, p.Source) || p.Name != "user:"+p.ID {
		return nil, &RejectedError{Check: "static", Reason: "replica content hash mismatch"}
	}
	if p.Insts > r.opts.MaxInsts {
		return nil, &RejectedError{Check: "static", Reason: fmt.Sprintf(
			"replica claims %d retired instructions, above this shard's probation budget %d", p.Insts, r.opts.MaxInsts)}
	}
	r.mu.Lock()
	if reason, ok := r.quarantined[p.ID]; ok {
		r.mu.Unlock()
		return nil, &QuarantinedError{ID: p.ID, Reason: reason}
	}
	if got, ok := r.progs.Get(p.ID); ok {
		// Re-pushes of a resident replica are free (and common: the gateway
		// re-pushes before every scatter until the shard confirms).
		r.mu.Unlock()
		return got, nil
	}
	if err := r.takeInstallTokenLocked(); err != nil {
		r.mu.Unlock()
		return nil, err
	}
	if ts := r.tenant(p.Tenant); ts.programs >= r.opts.TenantPrograms {
		r.mu.Unlock()
		return nil, &QuotaError{Tenant: p.Tenant,
			Reason: fmt.Sprintf("%d programs registered, limit %d", ts.programs, r.opts.TenantPrograms)}
	}
	r.mu.Unlock()

	_, asmSrc, err := build(p.Lang, p.Source, r.opts)
	if err != nil {
		return nil, err
	}
	cp := *p
	cp.Asm = asmSrc
	cp.MaxInsts = r.opts.MaxInsts

	r.mu.Lock()
	defer r.mu.Unlock()
	if reason, ok := r.quarantined[cp.ID]; ok {
		return nil, &QuarantinedError{ID: cp.ID, Reason: reason}
	}
	if got, ok := r.progs.Get(cp.ID); ok { // raced with another installer
		return got, nil
	}
	if ts := r.tenant(cp.Tenant); ts.programs >= r.opts.TenantPrograms {
		return nil, &QuotaError{Tenant: cp.Tenant,
			Reason: fmt.Sprintf("%d programs registered, limit %d", ts.programs, r.opts.TenantPrograms)}
	}
	r.installLocked(&cp)
	return &cp, nil
}

// takeInstallTokenLocked charges one replica install against the global
// install bucket (InstallPerMin capacity, refilled continuously).
func (r *Registry) takeInstallTokenLocked() error {
	now := r.opts.Now()
	rate := float64(r.opts.InstallPerMin)
	r.installTokens += now.Sub(r.installLast).Minutes() * rate
	r.installLast = now
	if r.installTokens > rate {
		r.installTokens = rate
	}
	if r.installTokens < 1 {
		wait := time.Duration((1 - r.installTokens) / rate * float64(time.Minute))
		return &QuotaError{Tenant: "fleet",
			Reason:     fmt.Sprintf("replica install rate above %d/min", r.opts.InstallPerMin),
			RetryAfter: wait}
	}
	r.installTokens--
	return nil
}

// installLocked assumes r.mu held and the id not present.
func (r *Registry) installLocked(p *Program) {
	r.tenant(p.Tenant).programs++
	r.addLocked(p)
}

// addLocked makes p resident and handles the programs the cache evicted
// for it: each is spilled when a spill store is configured. A spilled
// program still counts against its tenant (the bytes live on, just on
// disk); a dropped one does not. Caller holds r.mu.
func (r *Registry) addLocked(p *Program) {
	evicted, _ := r.progs.Add(p.ID, p, p.Bytes())
	for _, e := range evicted {
		if r.spill != nil && r.spill.save(e.Value) == nil {
			continue
		}
		if ts := r.tenants[e.Value.Tenant]; ts != nil && ts.programs > 0 {
			ts.programs--
		}
	}
}

// Get looks a program up by name ("user:<id>") or bare id, falling back to
// the spill store on a cache miss.
func (r *Registry) Get(name string) (*Program, error) {
	id := strings.TrimPrefix(name, "user:")
	r.mu.Lock()
	if reason, ok := r.quarantined[id]; ok {
		r.mu.Unlock()
		return nil, &QuarantinedError{ID: id, Reason: reason}
	}
	if p, ok := r.progs.Get(id); ok {
		r.mu.Unlock()
		return p, nil
	}
	spill := r.spill
	r.mu.Unlock()
	if spill == nil {
		return nil, &NotFoundError{Name: name}
	}
	p, err := spill.load(id)
	if err != nil {
		return nil, &NotFoundError{Name: name}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, ok := r.progs.Get(id); ok { // raced with another loader
		return got, nil
	}
	// Reinstall without recharging the tenant: a spilled program stayed on
	// its account the whole time.
	r.addLocked(p)
	return p, nil
}

// List returns the resident programs, most recently used first.
func (r *Registry) List() []*Program { return r.progs.Values() }

// Quarantined returns the quarantined IDs and reasons, sorted by ID.
func (r *Registry) Quarantined() []QuarantinedError {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]QuarantinedError, 0, len(r.quarantined))
	for id, reason := range r.quarantined {
		out = append(out, QuarantinedError{ID: id, Reason: reason})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stats is a point-in-time registry summary for metrics endpoints.
type Stats struct {
	Programs    int    `json:"programs"`
	StoredBytes int64  `json:"storedBytes"`
	Quarantined int    `json:"quarantined"`
	Accepted    uint64 `json:"accepted"`
	Rejected    uint64 `json:"rejected"`
	Quarantines uint64 `json:"quarantines"`
}

// Stats snapshots the registry counters.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{
		Programs:    r.progs.Len(),
		StoredBytes: r.progs.Bytes(),
		Quarantined: len(r.quarantined),
		Accepted:    r.accepted,
		Rejected:    r.rejected,
		Quarantines: r.quarantines,
	}
}

// maxTenantStates is the tenants-map size past which inserting a new state
// first sweeps out idle ones. Tenant identity is a caller-supplied header,
// so without this an attacker rotating names per request would grow the map
// without bound; with it, rotated names can pin at most this many states
// plus one refill window's worth, while states holding accepted programs
// are kept (they are bounded by the program store itself).
const maxTenantStates = 1024

func (r *Registry) tenant(name string) *tenantState {
	ts := r.tenants[name]
	if ts == nil {
		if len(r.tenants) >= maxTenantStates {
			r.pruneTenantsLocked()
		}
		ts = &tenantState{tokens: float64(r.opts.SubmitPerMin), last: r.opts.Now()}
		r.tenants[name] = ts
	}
	return ts
}

// pruneTenantsLocked drops tenant states that carry no information: no
// accepted programs and a rate bucket that has refilled to full, so
// recreating the state on the tenant's next submission is lossless.
func (r *Registry) pruneTenantsLocked() {
	now := r.opts.Now()
	rate := float64(r.opts.SubmitPerMin)
	for name, ts := range r.tenants {
		if ts.programs > 0 {
			continue
		}
		if ts.tokens+now.Sub(ts.last).Minutes()*rate >= rate {
			delete(r.tenants, name)
		}
	}
}

// takeTokenLocked charges one submission against the tenant's rate bucket
// (SubmitPerMin capacity, refilled continuously at SubmitPerMin per
// minute).
func (r *Registry) takeTokenLocked(tenant string) error {
	ts := r.tenant(tenant)
	now := r.opts.Now()
	rate := float64(r.opts.SubmitPerMin)
	ts.tokens += now.Sub(ts.last).Minutes() * rate
	ts.last = now
	if ts.tokens > rate {
		ts.tokens = rate
	}
	if ts.tokens < 1 {
		wait := time.Duration((1 - ts.tokens) / rate * float64(time.Minute))
		return &QuotaError{Tenant: tenant,
			Reason:     fmt.Sprintf("submission rate above %d/min", r.opts.SubmitPerMin),
			RetryAfter: wait}
	}
	ts.tokens--
	return nil
}
