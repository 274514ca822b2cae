// Package core is the top-level façade of the significance-compression
// library: it wires the functional interpreter, the instruction recoder,
// the activity collectors and any set of pipeline timing models into a
// single Machine that evaluates a workload end to end.
//
// The paper's contribution decomposes into three mechanisms, each in its
// own package, all orchestrated here:
//
//   - data significance compression (package sig) — 2/3-bit extension
//     fields marking sign-extension bytes, at byte or halfword granularity;
//   - the significance-gated ALU (package sigalu) — byte-serial arithmetic
//     that touches only significant bytes (§2.5, Table 4);
//   - instruction significance compression (package icomp) — the R-format
//     recode + permutation and I-format immediate split that fetch most
//     instructions as three bytes (§2.3, Figures 2a–2c).
//
// A Machine runs a program once and reports, for that single trace, the
// CPI of every requested pipeline organization (§4–§6) and the per-stage
// activity reductions (§2.9, Tables 5/6).
package core

import (
	"context"
	"fmt"

	"repro/internal/activity"
	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/icomp"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// Config selects what a Machine measures.
type Config struct {
	// Models lists the pipeline organizations to time. Empty means all
	// seven (pipeline.AllNames).
	Models []string
	// Granularities lists the activity-collection block sizes in bytes
	// (1 = byte, 2 = halfword). Empty means both.
	Granularities []int
	// Recoder supplies the instruction compression tables. Nil means the
	// static default top-8 (icomp.DefaultTopFuncts); for suite-profiled
	// recoding use trace.SuiteRecoder.
	Recoder *icomp.Recoder
	// MaxInsts bounds execution (0 = one hundred million).
	MaxInsts uint64
}

func (c Config) withDefaults() Config {
	if len(c.Models) == 0 {
		c.Models = pipeline.AllNames()
	}
	if len(c.Granularities) == 0 {
		c.Granularities = []int{1, 2}
	}
	if c.Recoder == nil {
		c.Recoder = icomp.MustNewRecoder(icomp.DefaultTopFuncts())
	}
	if c.MaxInsts == 0 {
		c.MaxInsts = 100_000_000
	}
	return c
}

// Report is the outcome of one evaluation.
type Report struct {
	// Insts is the dynamic instruction count of the run.
	Insts uint64
	// Output is whatever the program printed through syscalls.
	Output string
	// ExitCode is the program's exit status.
	ExitCode uint32
	// Pipelines holds one timing result per requested model.
	Pipelines map[string]pipeline.Result
	// Activity holds per-granularity stage tallies (keys 1 and 2).
	Activity map[int]activity.Counts
}

// CPI returns the CPI of one model in the report (0 if absent).
func (r *Report) CPI(model string) float64 {
	if p, ok := r.Pipelines[model]; ok {
		return p.CPI()
	}
	return 0
}

// Overhead returns model CPI relative to the baseline, as a +fraction
// (e.g. 0.79 for the paper's byte-serial). Returns 0 when either is absent.
func (r *Report) Overhead(model string) float64 {
	base := r.CPI(pipeline.NameBaseline32)
	if base == 0 {
		return 0
	}
	return r.CPI(model)/base - 1
}

// Machine evaluates programs under significance compression.
type Machine struct {
	cfg Config
}

// NewMachine builds a Machine from cfg (zero value selects everything).
func NewMachine(cfg Config) *Machine {
	return &Machine{cfg: cfg.withDefaults()}
}

// EvaluateProgram runs an assembled program.
func (m *Machine) EvaluateProgram(p *asm.Program) (*Report, error) {
	memory := mem.NewMemory()
	p.LoadInto(memory)
	c := cpu.New(memory, p.Entry, asm.DefaultStackTop)
	// The collectors read cache-line contents from their own copy of the
	// initial image, which the trace's stores are applied to in order.
	image := mem.NewMemory()
	p.LoadInto(image)
	return m.evaluate(c, image)
}

// EvaluateSource assembles src and runs it.
func (m *Machine) EvaluateSource(src string) (*Report, error) {
	p, err := asm.Assemble(src)
	if err != nil {
		return nil, err
	}
	return m.EvaluateProgram(p)
}

func (m *Machine) evaluate(c *cpu.CPU, image *mem.Memory) (*Report, error) {
	models := make([]*pipeline.Model, 0, len(m.cfg.Models))
	consumers := make([]trace.Consumer, 0, len(m.cfg.Models)+len(m.cfg.Granularities))
	for _, n := range m.cfg.Models {
		pm := pipeline.New(n)
		if pm == nil {
			return nil, fmt.Errorf("core: unknown pipeline model %q", n)
		}
		models = append(models, pm)
		consumers = append(consumers, pm)
	}
	collectors := make(map[int]*activity.Collector, len(m.cfg.Granularities))
	for _, g := range m.cfg.Granularities {
		if g != 1 && g != 2 {
			return nil, fmt.Errorf("core: unsupported granularity %d (want 1 or 2)", g)
		}
		col := activity.NewCollector(g, m.cfg.Recoder, image)
		collectors[g] = col
		consumers = append(consumers, col)
	}

	if _, err := trace.Interpret(context.Background(), c, m.cfg.MaxInsts, image, m.cfg.Recoder, consumers...); err != nil {
		return nil, err
	}
	if !c.Done {
		return nil, fmt.Errorf("core: instruction limit %d exceeded", m.cfg.MaxInsts)
	}

	rep := &Report{
		Insts:     c.Retired,
		Output:    c.Output.String(),
		ExitCode:  c.ExitCode,
		Pipelines: make(map[string]pipeline.Result, len(models)),
		Activity:  make(map[int]activity.Counts, len(collectors)),
	}
	for _, pm := range models {
		rep.Pipelines[pm.Name()] = pm.Result()
	}
	for g, col := range collectors {
		rep.Activity[g] = col.Counts()
	}
	return rep, nil
}
