package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// quantile is the q-quantile of ds, interpolating between closest ranks (0
// for no samples).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + time.Duration((pos-float64(lo))*float64(s[lo+1]-s[lo]))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quartiles returns the first quartile, median and third quartile of xs the
// way Python's statistics.quantiles(xs, n=4) and statistics.median do, so
// spreads read the same here as in any Python check of the same runs.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), med, q(3)
}

// ledger is a set of recorded runs: the file -out appends to and -compare
// reads.
type ledger struct {
	Go         string      `json:"go"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	NumCPU     int         `json:"nproc"`
	Seconds    int         `json:"seconds"`
	Runs       []ledgerRun `json:"runs"`
}

type ledgerRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	result
}

func readLedger(path string) (*ledger, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(b, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

// benchSpec is the part of BENCHMARK.json -compare needs.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// findBenchSpec reads BENCHMARK.json from the working directory or the
// nearest parent that has one.
func findBenchSpec() (*benchSpec, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var s benchSpec
			if err := json.Unmarshal(b, &s); err != nil {
				return nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return &s, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, errors.New("no BENCHMARK.json in this directory or above")
		}
		dir = parent
	}
}

// compare prints, for each workload and metric, the parent's and the
// change's median and quartiles and a verdict, following the no-regression
// rule: a change may not be worse than the parent's median by more than the
// metric's bound; where the parent's own quartile spread exceeds the bound
// the metric is unresolved, unless every change run beats every parent run.
// It reports whether any metric regressed.
func compare(w io.Writer, spec *benchSpec, parent, change *ledger) bool {
	specs := make(map[string]metricSpec)
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		specs[m.Name] = m
	}
	values := func(l *ledger, wl, name string) []float64 {
		var out []float64
		for _, r := range l.Runs {
			if m, ok := r.Metrics[name]; ok && r.Workload == wl {
				out = append(out, m.Value)
			}
		}
		return out
	}
	var order []string
	seen := make(map[string]bool)
	for _, r := range parent.Runs {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			order = append(order, r.Workload)
		}
	}
	regressed := false
	fmt.Fprintf(w, "%-18s %-40s %28s %28s %8s  %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "verdict")
	for _, wl := range order {
		var names []string
		for _, r := range parent.Runs {
			if r.Workload == wl {
				for n := range r.Metrics {
					names = append(names, n)
				}
			}
		}
		sort.Strings(names)
		for i, n := range names {
			if i > 0 && n == names[i-1] {
				continue
			}
			p, c := values(parent, wl, n), values(change, wl, n)
			if len(c) == 0 {
				continue
			}
			pq1, pm, pq3 := quartiles(p)
			cq1, cm, cq3 := quartiles(c)
			sp := specs[n]
			sign := 1.0 // worse is larger
			if sp.Better == "higher" {
				sign = -1
			}
			worse := sign * (cm - pm) / math.Abs(pm)
			verdict := "info"
			switch {
			case sp.Bound == 0:
			case (pq3-pq1)/math.Abs(pm) > sp.Bound:
				verdict = "unresolved"
				if allBetter(p, c, sign) {
					verdict = "better (every run)"
				}
			case worse > sp.Bound:
				verdict = fmt.Sprintf("REGRESSION (bound %.0f%%)", 100*sp.Bound)
				regressed = true
			default:
				verdict = "ok"
			}
			fmt.Fprintf(w, "%-18s %-40s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] %+7.1f%%  %s\n",
				wl, n, pm, pq1, pq3, cm, cq1, cq3, 100*(cm-pm)/math.Abs(pm), verdict)
		}
	}
	return regressed
}

// allBetter reports whether every change value beats every parent value.
func allBetter(parent, change []float64, sign float64) bool {
	for _, p := range parent {
		for _, c := range change {
			if sign*(c-p) >= 0 {
				return false
			}
		}
	}
	return true
}
