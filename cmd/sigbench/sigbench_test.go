package main

import (
	"bytes"
	"context"
	"flag"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/simsvc"
)

var update = flag.Bool("update", false, "regenerate testdata/golden.json from the service, cross-checked against experiments.RunSuite")

// cliGolden derives every golden digest from experiments.RunSuite, the CLI's
// evaluation path, which shares no driver code with the service.
func cliGolden(t *testing.T) *golden {
	t.Helper()
	res, err := experiments.RunSuite(context.Background(), bench.All(), runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	g := &golden{Simulate: make(map[string]string)}
	for _, br := range res.Bench {
		for _, m := range pipeline.AllNames() {
			// The CLI keeps CPI, not cycles; cycles is recovered exactly or
			// the test fails.
			cpi := br.CPI[m]
			cycles := uint64(math.Round(cpi * float64(br.Insts)))
			if float64(cycles)/float64(br.Insts) != cpi {
				t.Fatalf("%s/%s: no cycle count gives CPI %v", br.Name, m, cpi)
			}
			stalls := make(map[string]uint64)
			for k, v := range br.Stalls[m] {
				stalls[string(k)] = v
			}
			for gran, act := range map[int]map[string]float64{1: experiments.SavingMap(br.ByteAct), 2: experiments.SavingMap(br.HalfAct)} {
				key := simKey{br.Name, m, gran}.String()
				g.Simulate[key] = canonSim{br.Insts, cycles, cpi, stalls, act}.digest()
			}
		}
	}
	g.Benchmarks, g.Sections = suiteDigests(res.Encode())
	return g
}

// serviceGolden asks one sigserve shard for every canonical simulate answer
// and the full suite.
func serviceGolden(t *testing.T) *golden {
	t.Helper()
	ctx := context.Background()
	r := &runner{workload: "golden", seed: 1, benches: bench.All()}
	f := r.newFleet(1, 0, "", false)
	defer f.close()
	keys := r.simulateKeys()
	digests := make([]string, len(keys))
	err := each(len(keys), simulateClients, func(i int) error {
		var resp simsvc.Response
		_, err := r.get(ctx, f.client, "http://shard0/v1/simulate?"+keys[i].query(), 0, &resp)
		digests[i] = simDigest(&resp)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	g := &golden{Simulate: make(map[string]string)}
	for i, k := range keys {
		g.Simulate[k.String()] = digests[i]
	}
	var resp simsvc.Response
	if _, err := r.get(ctx, f.client, "http://shard0/v1/suite", 0, &resp); err != nil {
		t.Fatal(err)
	}
	g.Benchmarks, g.Sections = suiteDigests(resp.Suite)
	return g
}

func diffGolden(t *testing.T, what string, got, want *golden) {
	t.Helper()
	for _, m := range []struct {
		name      string
		got, want map[string]string
	}{{"simulate", got.Simulate, want.Simulate}, {"suiteBenchmarks", got.Benchmarks, want.Benchmarks}, {"suiteSections", got.Sections, want.Sections}} {
		if len(m.got) != len(m.want) {
			t.Errorf("%s: %s has %d entries, want %d", what, m.name, len(m.got), len(m.want))
		}
		for k, w := range m.want {
			if m.got[k] != w {
				t.Errorf("%s: %s[%s] = %.12s, want %.12s", what, m.name, k, m.got[k], w)
			}
		}
	}
}

// TestGolden checks the committed golden against the CLI path; with
// -update it regenerates the golden from the service after checking the
// service against the CLI path.
func TestGolden(t *testing.T) {
	if testing.Short() && !*update {
		t.Skip("evaluates the whole suite")
	}
	want := cliGolden(t)
	if len(want.Simulate) != len(bench.All())*len(pipeline.AllNames())*2 {
		t.Fatalf("%d simulate keys", len(want.Simulate))
	}
	if !*update {
		got, err := loadGolden()
		if err != nil {
			t.Fatal(err)
		}
		diffGolden(t, "committed golden vs experiments.RunSuite", got, want)
		return
	}
	got := serviceGolden(t)
	diffGolden(t, "sigserve vs experiments.RunSuite", got, want)
	if t.Failed() {
		t.Fatal("not writing a golden the two paths disagree on")
	}
	if err := writeJSONFile("testdata/golden.json", got); err != nil {
		t.Fatal(err)
	}
}

func readSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := findBenchSpec()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func checkNames(t *testing.T, what string, got map[string]metric, want []metricSpec) {
	t.Helper()
	var g, w []string
	for n, m := range got {
		g = append(g, n+" "+m.Unit)
	}
	for _, m := range want {
		w = append(w, m.Name+" "+m.Unit)
	}
	sort.Strings(g)
	sort.Strings(w)
	if strings.Join(g, "\n") != strings.Join(w, "\n") {
		t.Errorf("%s emits\n%s\nBENCHMARK.json lists\n%s", what, strings.Join(g, "\n"), strings.Join(w, "\n"))
	}
}

// TestWorkloadsSmoke runs every workload in-process at a tiny size: two
// benchmarks, one key cycle or one op, one set-up.
func TestWorkloadsSmoke(t *testing.T) {
	spec := readSpec(t)
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	var tiny []bench.Benchmark
	for _, b := range bench.All() {
		if b.Name == "g711dec" || b.Name == "dijkstra" {
			tiny = append(tiny, b)
		}
	}
	ctx := context.Background()
	run := func(name string, traced bool) (*runner, result) {
		t.Helper()
		r := &runner{workload: name, seed: 7, benches: tiny, reps: 1, golden: g, dir: t.TempDir()}
		if traced {
			r.rec = newRecorder()
		}
		res, err := r.run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("%s: %d of %d ops failed: %v", name, res.Failed, res.Attempted, r.firstErr)
		}
		checkNames(t, name, res.Metrics, spec.EndToEnd)
		return r, res
	}

	for _, name := range []string{"simulate-resident", "simulate-mapped"} {
		r, res := run(name, false)
		if want := len(tiny) * len(pipeline.AllNames()) * 2; res.Attempted != want {
			t.Errorf("%s: %d ops, want one cycle of %d", name, res.Attempted, want)
		}
		if r.svc["hits"] != 0 || r.svc["captures"] != 0 {
			t.Errorf("%s: timed phase had %v result-cache hits and %v captures, want none", name, r.svc["hits"], r.svc["captures"])
		}
		if name == "simulate-mapped" && r.mapLoads != float64(len(tiny)) {
			t.Errorf("%s: %v trace map loads, want one per benchmark (%d)", name, r.mapLoads, len(tiny))
		}
	}

	first, _ := run("suite-gateway", false)
	second, _ := run("suite-gateway", true)
	o1, o2 := first.owners(), second.owners()
	if len(o1) != len(tiny) || !equalMaps(o1, o2) {
		t.Errorf("ring ownership differs between runs: %v vs %v", o1, o2)
	}

	layers, err := second.perLayer(ctx)
	if err != nil {
		t.Fatal(err)
	}
	checkNames(t, "traced suite-gateway", layers, spec.PerLayer)
	spans := second.rec.snapshot()
	ids := make(map[int64]bool)
	for _, s := range spans {
		ids[s.ID] = true
	}
	var handlers int
	for _, s := range spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		switch s.Name {
		case "op", "layers":
			if s.Parent != 0 || s.Req == "" {
				t.Errorf("root span %+v lacks a request ID or has a parent", s)
			}
		case "simsvc.handler":
			handlers++
			if s.Parent == 0 {
				t.Errorf("shard span %+v was not linked to a gateway span", s)
			}
		default:
			if s.Parent == 0 {
				t.Errorf("span %+v has no parent", s)
			}
		}
	}
	if handlers == 0 {
		t.Error("no shard spans recorded")
	}
}

func equalMaps(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4) and
// statistics.median.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
	} {
		q1, m, q3 := quartiles(c.xs)
		if [3]float64{q1, m, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, m, q3, c.want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricSpec{{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}}}
	ledgerOf := func(vals ...float64) *ledger {
		l := &ledger{}
		for _, v := range vals {
			l.Runs = append(l.Runs, ledgerRun{Workload: "w", result: result{Metrics: map[string]metric{"latency_p50_ms": {v, "ms"}}}})
		}
		return l
	}
	for _, c := range []struct {
		parent, change *ledger
		verdict        string
		regressed      bool
	}{
		{ledgerOf(10, 10.1, 9.9, 10), ledgerOf(10.2, 10.3, 10.1, 10.2), "ok", false},
		{ledgerOf(10, 10.1, 9.9, 10), ledgerOf(12, 12.1, 11.9, 12), "REGRESSION", true},
		{ledgerOf(5, 10, 15, 20), ledgerOf(12, 12.1, 11.9, 12), "unresolved", false},
	} {
		var buf bytes.Buffer
		if got := compare(&buf, spec, c.parent, c.change); got != c.regressed || !strings.Contains(buf.String(), c.verdict) {
			t.Errorf("compare = %v,\n%s\nwant %v and %q", got, buf.String(), c.regressed, c.verdict)
		}
	}
}
