// Package energy converts the activity study into first-order dynamic
// energy estimates — the step the paper's §7 defers to circuit-level work
// ("The final quantification of energy requires a further detailed
// circuit-level analysis"). The estimates here are deliberately
// coarse-grained and *relative*: each pipeline structure gets a weight in
// "energy units per bit of activity", so the output is meaningful as a
// comparison between the baseline and compressed machines (and between
// designs via energy-delay product), never as absolute joules.
//
// Default weights follow standard first-order CMOS reasoning: array
// accesses (caches, register file) cost more per bit than random logic
// because of word/bit-line and sense-amplifier capacitance (see
// the §2.4 decomposition in internal/rfmodel/rfmodel_test.go); latches cost less per bit
// but include their share of clock load; the PC incrementer is narrow
// ripple logic. Users with real technology data substitute their own
// Weights.
package energy

import (
	"fmt"

	"repro/internal/activity"
)

// Weights are relative energy units per bit of activity per structure.
type Weights struct {
	FetchBit  float64 // I-cache data array read/fill bits
	RFBit     float64 // register file read/write bits
	ALUBit    float64 // ALU datapath bit operations
	DCacheBit float64 // D-cache data array bits
	TagBit    float64 // cache tag array bits
	PCBit     float64 // PC increment bits
	LatchBit  float64 // pipeline latch bits (incl. clock share)
}

// DefaultWeights returns the documented first-order relative weights.
func DefaultWeights() Weights {
	return Weights{
		FetchBit:  2.0, // SRAM array + sense amps
		RFBit:     1.5, // small multi-ported array
		ALUBit:    1.0, // random logic reference
		DCacheBit: 2.0,
		TagBit:    2.0,
		PCBit:     0.6, // short ripple chains
		LatchBit:  0.8, // latch + local clock
	}
}

// Validate rejects non-positive weights.
func (w Weights) Validate() error {
	for _, v := range []float64{w.FetchBit, w.RFBit, w.ALUBit, w.DCacheBit, w.TagBit, w.PCBit, w.LatchBit} {
		if v <= 0 {
			return fmt.Errorf("energy: non-positive weight in %+v", w)
		}
	}
	return nil
}

// StageEstimate is one structure's baseline and compressed energy.
type StageEstimate struct {
	Stage      string
	Baseline   float64
	Compressed float64
}

// Saving returns the percent energy reduction of the stage.
func (s StageEstimate) Saving() float64 {
	if s.Baseline == 0 {
		return 0
	}
	return 100 * (1 - s.Compressed/s.Baseline)
}

// Estimate is a full-machine relative energy comparison.
type Estimate struct {
	Stages []StageEstimate
}

// FromCounts weights the activity tallies into an Estimate.
func FromCounts(c activity.Counts, w Weights) Estimate {
	mk := func(name string, sb activity.StageBits, weight float64) StageEstimate {
		return StageEstimate{
			Stage:      name,
			Baseline:   float64(sb.Baseline) * weight,
			Compressed: float64(sb.Compressed) * weight,
		}
	}
	return Estimate{Stages: []StageEstimate{
		mk("fetch", c.Fetch, w.FetchBit),
		mk("rf-read", c.RFRead, w.RFBit),
		mk("rf-write", c.RFWrite, w.RFBit),
		mk("alu", c.ALU, w.ALUBit),
		mk("dcache-data", c.DCacheData, w.DCacheBit),
		mk("dcache-tag", c.DCacheTag, w.TagBit),
		mk("pc", c.PCIncr, w.PCBit),
		mk("latches", c.Latch, w.LatchBit),
	}}
}

// Totals returns the machine-level baseline and compressed energy.
func (e Estimate) Totals() (baseline, compressed float64) {
	for _, s := range e.Stages {
		baseline += s.Baseline
		compressed += s.Compressed
	}
	return baseline, compressed
}

// Saving returns the overall percent energy reduction.
func (e Estimate) Saving() float64 {
	b, c := e.Totals()
	if b == 0 {
		return 0
	}
	return 100 * (1 - c/b)
}

// EDP is the energy-delay product in relative units: design comparisons
// multiply each machine's energy by its cycle count. Lower is better.
func EDP(energyUnits float64, cycles uint64) float64 {
	return energyUnits * float64(cycles)
}
