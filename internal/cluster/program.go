package cluster

import (
	"context"
	"net/http"
	"net/url"
	"strings"

	"repro/internal/simsvc"
	"repro/internal/workload"
)

// SubmitProgram routes one untrusted submission to the shard owning its
// content hash (the same deterministic routing as single jobs, so repeat
// submissions of the same source land on the same shard's registry) and,
// on acceptance, replicates the validated program across the fleet so
// scattered suites and sweeps can land its jobs anywhere. Rejections and
// quarantines are permanent answers: the gateway propagates them without
// re-running the probation on another shard.
func (g *Gateway) SubmitProgram(ctx context.Context, tenant string, req simsvc.ProgramRequest) (*workload.Program, error) {
	g.metrics.requests.Add(1)
	lang := req.Lang
	if lang == "" {
		lang = workload.LangAsm
	}
	id := workload.ProgramID(lang, req.Source)
	g.metrics.programsRouted.Add(1)
	var hdr http.Header
	if tenant != "" {
		hdr = http.Header{"X-Tenant": []string{tenant}}
	}
	p, err := dispatch(ctx, g, "program|"+id, func(ctx context.Context, b *backend) (*workload.Program, error) {
		var out workload.Program
		if err := g.postJSON(ctx, b, "/v1/program", hdr, req, &out); err != nil {
			return nil, err
		}
		return &out, nil
	})
	if err != nil {
		g.metrics.errors.Add(1)
		return nil, err
	}
	g.storeReplica(p)
	g.ensurePrograms(ctx, []string{p.Name})
	return p, nil
}

// storeReplica inserts (or refreshes) one accepted program in the bounded
// replica store, evicting LRU tails past the count/byte budget. Eviction
// drops the install confirmations with the program; if the name comes back
// later it is re-fetched and re-pushed, and shards answer re-pushes of a
// resident program cheaply.
func (g *Gateway) storeReplica(p *workload.Program) {
	g.progMu.Lock()
	defer g.progMu.Unlock()
	if rep, ok := g.replicas.Get(p.Name); ok {
		rep.p = p // keeps the confirmations
		g.replicas.Resize(p.Name, p.Bytes())
		return
	}
	g.replicas.Add(p.Name, &replica{p: p, confirmed: make(map[string]bool)}, p.Bytes())
}

// replicaOf returns the stored replica for name (touching its LRU slot),
// or nil.
func (g *Gateway) replicaOf(name string) *replica {
	rep, _ := g.replicas.Get(name)
	return rep
}

// GetProgram answers a program lookup from the gateway's replica store,
// falling back to the fleet (content-hash owner first). An unknown id is a
// permanent 404: content addressing means no other shard can have it under
// a different name.
func (g *Gateway) GetProgram(ctx context.Context, id string) (*workload.Program, error) {
	g.metrics.requests.Add(1)
	name := id
	if !workload.IsUserName(name) {
		name = "user:" + name
	}
	if rep := g.replicaOf(name); rep != nil {
		return rep.p, nil
	}
	bare := strings.TrimPrefix(name, "user:")
	p, err := dispatch(ctx, g, "program|"+bare, func(ctx context.Context, b *backend) (*workload.Program, error) {
		var out workload.Program
		if err := g.getJSON(ctx, b, "/v1/program/"+url.PathEscape(bare), &out); err != nil {
			return nil, err
		}
		return &out, nil
	})
	if err != nil {
		g.metrics.errors.Add(1)
		return nil, err
	}
	return p, nil
}

// ensurePrograms pushes the gateway's validated replicas of the named user
// programs to every backend that has not yet confirmed the install. It is
// the scatter-time half of replication: acceptance broadcasts once, and any
// shard that was down (or joined late) gets the program re-pushed before
// scattered work can land on it. Names the gateway does not hold replicas
// for are left to the shards — a program submitted directly to one shard
// still runs there, and a genuinely unknown name gets that shard's typed
// error. Push failures are counted and retried on the next scatter rather
// than failing the request: the shard answering the work is the one that
// must hold the program, and dispatch prefers shards that confirmed.
func (g *Gateway) ensurePrograms(ctx context.Context, names []string) {
	var hdr http.Header
	if g.cfg.InstallToken != "" {
		hdr = http.Header{"X-Install-Token": []string{g.cfg.InstallToken}}
	}
	for _, name := range names {
		if !workload.IsUserName(name) {
			continue
		}
		rep := g.replicaOf(name)
		if rep == nil {
			continue
		}
		for _, b := range g.backends {
			// rep.confirmed is guarded by progMu; the *replica itself stays
			// valid even if the store evicts it mid-push — the confirmations
			// are then simply discarded with it.
			g.progMu.Lock()
			done := rep.confirmed[b.base]
			g.progMu.Unlock()
			if done {
				continue
			}
			if err := g.postJSON(ctx, b, "/v1/program/install", hdr, rep.p, nil); err != nil {
				g.metrics.replicaErrors.Add(1)
				continue
			}
			g.metrics.programReplicas.Add(1)
			g.progMu.Lock()
			rep.confirmed[b.base] = true
			g.progMu.Unlock()
		}
	}
}

// userBenchesOf filters names down to user-program benchmarks, the inputs
// scatter paths must replicate before dispatching.
func userBenchesOf(names []string) []string {
	var out []string
	for _, n := range names {
		if workload.IsUserName(n) {
			out = append(out, n)
		}
	}
	return out
}
