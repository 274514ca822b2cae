package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/experiments"
	"repro/internal/simsvc"
)

//go:embed testdata/golden.json
var goldenJSON []byte

// golden holds a SHA-256 digest of every result a workload can ask for,
// computed over the full served suite. Regenerate it with
// `go test . -update` in this directory; generation cross-checks the
// service's answers against experiments.RunSuite (the CLI path).
type golden struct {
	// Simulate maps "bench|model|gran" to the digest of the canonical
	// simulate answer (instructions, cycles, cpi, stalls, activitySaving).
	Simulate map[string]string `json:"simulate"`
	// Benchmarks maps a benchmark to the digest of its suite entry together
	// with its Brooks-Martonosi row, so any request order can be checked.
	Benchmarks map[string]string `json:"suiteBenchmarks"`
	// Sections maps each order-independent suite section to its digest.
	Sections map[string]string `json:"suiteSections"`
}

func loadGolden() (*golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	return &g, nil
}

// subsetIndependent are the suite sections that do not depend on which
// benchmarks a request names: the function-code profile comes from the
// recoder, which every shard profiles over the whole served suite, and the
// PC-increment table is analytic. The other sections are checked only when a
// request covers the full suite.
var subsetIndependent = map[string]bool{"functProfile": true, "pcIncrementModel": true}

// canonSim is the part of a simulate answer the golden pins.
type canonSim struct {
	Insts    uint64             `json:"instructions"`
	Cycles   uint64             `json:"cycles"`
	CPI      float64            `json:"cpi"`
	Stalls   map[string]uint64  `json:"stalls"`
	Activity map[string]float64 `json:"activitySaving"`
}

func (c canonSim) digest() string {
	if len(c.Stalls) == 0 {
		c.Stalls = nil
	}
	if len(c.Activity) == 0 {
		c.Activity = nil
	}
	return digest(c)
}

func simDigest(r *simsvc.Response) string {
	return canonSim{r.Insts, r.Cycles, r.CPI, r.Stalls, r.Activity}.digest()
}

// digest hashes v's JSON encoding. Everything hashed here was decoded from
// JSON or built from finite simulator counts, so encoding cannot fail.
func digest(v any) string {
	b, _ := json.Marshal(v)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// suiteDigests returns the per-benchmark and per-section digests of a suite
// document.
func suiteDigests(s *experiments.JSONResults) (benches, sections map[string]string) {
	bm := make(map[string]experiments.BMJSON, len(s.BMGating))
	for _, row := range s.BMGating {
		bm[row.Benchmark] = row
	}
	benches = make(map[string]string, len(s.Benchmarks))
	for _, b := range s.Benchmarks {
		benches[b.Name] = digest(struct {
			Bench experiments.BenchJSON `json:"bench"`
			BM    experiments.BMJSON    `json:"bmGating"`
		}{b, bm[b.Name]})
	}
	sections = map[string]string{
		"significantBytePatterns": digest(s.Patterns),
		"pcIncrementModel":        digest(s.PCIncr),
		"functProfile":            digest(s.Functs),
		"instructionCompression":  digest(s.Fetch),
		"partitionAblation":       digest(s.Partitions),
		"width64Projection":       digest(s.Width64),
		"compressedFrontend":      digest(s.Frontend),
	}
	return benches, sections
}

func (g *golden) checkSimulate(key string, r *simsvc.Response) error {
	want, ok := g.Simulate[key]
	if !ok {
		return fmt.Errorf("golden: no entry for simulate %s", key)
	}
	if got := simDigest(r); got != want {
		return fmt.Errorf("golden: simulate %s digest %.12s, want %.12s", key, got, want)
	}
	return nil
}

// checkSuite checks a suite answer for the benchmarks names, in that order.
func (g *golden) checkSuite(r *simsvc.Response, names []string) error {
	if r.Suite == nil {
		return fmt.Errorf("golden: suite answer has no suite document")
	}
	got := make([]string, len(r.Suite.Benchmarks))
	for i, b := range r.Suite.Benchmarks {
		got[i] = b.Name
	}
	if strings.Join(got, ",") != strings.Join(names, ",") {
		return fmt.Errorf("golden: suite lists %v, asked for %v", got, names)
	}
	benches, sections := suiteDigests(r.Suite)
	for _, n := range names {
		if benches[n] != g.Benchmarks[n] {
			return fmt.Errorf("golden: suite entry %s digest %.12s, want %.12s", n, benches[n], g.Benchmarks[n])
		}
	}
	full := len(names) == len(g.Benchmarks)
	for sec, want := range g.Sections {
		if (full || subsetIndependent[sec]) && sections[sec] != want {
			return fmt.Errorf("golden: suite section %s digest %.12s, want %.12s", sec, sections[sec], want)
		}
	}
	return nil
}
