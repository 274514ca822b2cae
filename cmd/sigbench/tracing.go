package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanHeader carries the benchmark client's span ID to the benchmark's own
// middleware in front of a handler. The gateway does not forward it, so shard
// spans under the gateway arrive without a parent and are linked afterwards
// by time containment (see linkOrphans).
const spanHeader = "X-Sigbench-Span"

// span is one timed interval at a layer boundary. Spans of one op share the
// request ID of their root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`  // request ID, set on op roots
	Attr   string `json:"attr,omitempty"` // shard name or request target
	Start  int64  `json:"startNs"`        // since the recorder's epoch
	End    int64  `json:"endNs"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// id is s.ID, or 0 (no parent) for the nil span an untraced run hands out.
func (s *span) id() int64 {
	if s == nil {
		return 0
	}
	return s.ID
}

// recorder keeps spans in memory until the run ends. It records only while
// on — during the timed phase and the layer pass — so set-up traffic leaves
// no spans. A nil *recorder is an untraced run: every method is a no-op.
type recorder struct {
	epoch time.Time
	ids   atomic.Int64
	on    atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) setOn(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

func (r *recorder) start(name string, parent int64, req, attr string) *span {
	if r == nil || !r.on.Load() {
		return nil
	}
	return &span{
		ID: r.ids.Add(1), Parent: parent, Name: name, Req: req, Attr: attr,
		Start: int64(time.Since(r.epoch)),
	}
}

func (r *recorder) end(s *span) {
	if s == nil {
		return
	}
	s.End = int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans = append(r.spans, *s)
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far, orphan shard spans linked.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	linkOrphans(out)
	return out
}

// linkOrphans parents each shard span that arrived without a span header on
// the gateway span that was open when it started (a hedge the gateway gave
// up on may end after it). This is exact only while a single client drives
// the gateway, which suite-gateway guarantees.
func linkOrphans(spans []span) {
	var gw []*span
	for i := range spans {
		if spans[i].Name == "cluster.gateway" {
			gw = append(gw, &spans[i])
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 || s.Name != "simsvc.handler" {
			continue
		}
		for _, g := range gw {
			if g.Start <= s.Start && s.Start <= g.End {
				s.Parent = g.ID
				break
			}
		}
	}
}

// middleware wraps one API handler of the fleet: every /v1/ request records
// a span named layer (parented on the client's span, when it sent one), and
// every /v1/partial request is reported to observe with the shard's name, so
// the benchmark can see how the gateway partitions a suite.
func middleware(rec *recorder, layer, name string, observe func(shard, benches string), h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !strings.HasPrefix(req.URL.Path, "/v1/") {
			h.ServeHTTP(w, req)
			return
		}
		if req.URL.Path == "/v1/partial" && observe != nil {
			observe(name, req.URL.Query().Get("bench"))
		}
		parent, _ := strconv.ParseInt(req.Header.Get(spanHeader), 10, 64)
		sp := rec.start(layer, parent, "", name)
		h.ServeHTTP(w, req)
		rec.end(sp)
	})
}

// spanMetrics derives the span-based per-layer metrics of one run.
func spanMetrics(spans []span) map[string]metric {
	children := make(map[int64][]*span)
	for i := range spans {
		children[spans[i].Parent] = append(children[spans[i].Parent], &spans[i])
	}
	var handler, transport, gwSelf []time.Duration
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case "simsvc.handler":
			handler = append(handler, s.dur())
		case "http.client":
			for _, c := range children[s.ID] {
				if c.Name == "simsvc.handler" || c.Name == "cluster.gateway" {
					transport = append(transport, s.dur()-c.dur())
					break
				}
			}
		case "cluster.gateway":
			gwSelf = append(gwSelf, s.dur()-covered(s, children[s.ID]))
		}
	}
	return map[string]metric{
		"simsvc.handler_p50_ms":   {ms(quantile(handler, 0.5)), "ms"},
		"simsvc.transport_p50_ms": {ms(quantile(transport, 0.5)), "ms"},
		"cluster.gateway_self_ms": {ms(quantile(gwSelf, 0.5)), "ms"},
	}
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent *span, kids []*span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return time.Duration(total)
}

// spanFile is what a traced run writes: its spans, plus the end-to-end
// metrics of the same run so the caller can compute the tracing overhead.
type spanFile struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	EndToEnd map[string]metric `json:"endToEnd"`
	Spans    []span            `json:"spans"`
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
