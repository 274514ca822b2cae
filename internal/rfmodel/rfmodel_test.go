// Package rfmodel checks the paper's §2.4 register-file layout argument
// with a first-order model. It holds only this test file: no program
// imports the model, and the figures EXPERIMENTS.md quotes from it are
// asserted here. The paper argues that splitting the 32-entry × 32-bit
// register file into four 32 × 8-bit banks does not increase energy even
// when all four banks end up being accessed:
//
//	"The word line consumption of each single access is reduced by a
//	factor of about four, since every bank is about one fourth the width
//	... Bit line consumption is reduced by about four ... Sense amplifier
//	consumption is also reduced by a factor of four ... Thus, four
//	accesses result in approximately the same word line, bit line and
//	sense amplifier energy consumption as the 32-bit bank file."
//
// The model is the standard first-order SRAM access-energy decomposition
// (after Wada, Rajan & Przybylski's access-time model, the paper's [17]):
// per access, the energy splits into
//
//	word line:        ∝ bits per row (the wires driven across the row)
//	bit lines:        ∝ columns swung (bitline pairs precharged/discharged)
//	sense amplifiers: ∝ columns sensed
//	decoder:          ∝ log2(rows) (address predecode, small)
//
// all in arbitrary relative units (1 unit = one bit-column of a 32-entry
// array). Absolute calibration is circuit-level work the paper defers; the
// ratios are what §2.4 argues from and what these tests check.
package rfmodel

import (
	"math"
	"math/bits"
	"testing"
)

// layout describes one register-file data-array organization.
type layout struct {
	rows    int // word lines (register count)
	rowBits int // bits per row (bank width)
}

// accessEnergy is the relative energy of one read or write access to the
// array (all columns of one row).
func (l layout) accessEnergy() float64 {
	wordline := float64(l.rowBits)
	bitlines := float64(l.rowBits)
	sense := float64(l.rowBits)
	decoder := float64(bits.Len(uint(l.rows)) - 1) // log2(rows)
	return wordline + bitlines + sense + decoder
}

var (
	// baseline32 is the paper's monolithic file: 32 words of 32 bits.
	baseline32 = layout{rows: 32, rowBits: 32}
	// byteBank is one of the four banks of the proposed pipelines ("32 word
	// lines of 8 bits each for the proposed pipelines", §2.4).
	byteBank = layout{rows: 32, rowBits: 8}
	// halfwordBank is the 16-bit bank of the halfword-granularity designs.
	halfwordBank = layout{rows: 32, rowBits: 16}
)

// worstCaseRatio is the energy of reading a full 32-bit value through the
// byte banks (four accesses) relative to one monolithic access.
func worstCaseRatio() float64 {
	return 4 * byteBank.accessEnergy() / baseline32.accessEnergy()
}

// expectedRatio is the energy ratio for an operand whose significant-byte
// distribution is dist: dist[k] is the probability of needing k+1 bytes.
// This is where significance compression wins — most accesses touch one
// bank.
func expectedRatio(dist [4]float64) float64 {
	e := 0.0
	for k, p := range dist {
		e += p * float64(k+1) * byteBank.accessEnergy()
	}
	return e / baseline32.accessEnergy()
}

// near reports whether got rounds to want at two decimals.
func near(got, want float64) bool { return math.Abs(got-want) <= 0.005 }

// The layouts are the ones §2.4 names, and the banks tile the 32-bit word.
func TestLayoutValidate(t *testing.T) {
	for _, l := range []layout{baseline32, byteBank, halfwordBank} {
		if l.rows != 32 || l.rowBits <= 0 || 32%l.rowBits != 0 {
			t.Fatalf("layout %+v is not a 32-entry array whose banks tile a 32-bit word", l)
		}
	}
}

// §2.4: a byte bank costs about one quarter of the monolithic array per
// access: 0.29× in this model, as EXPERIMENTS.md quotes.
func TestBankAccessIsQuarter(t *testing.T) {
	if r := byteBank.accessEnergy() / baseline32.accessEnergy(); !near(r, 0.29) {
		t.Fatalf("byte bank per-access ratio %.3f, EXPERIMENTS.md quotes 0.29", r)
	}
}

// §2.4's worst case: four serial accesses cost about one monolithic
// access, 1.15× here, slightly above because each access pays the decoder.
func TestWorstCaseApproximatelyEqual(t *testing.T) {
	if r := worstCaseRatio(); !near(r, 1.15) {
		t.Fatalf("worst-case ratio %.3f, EXPERIMENTS.md quotes 1.15", r)
	}
}

// With the measured operand distribution (Table 1: ~53% one byte, ~25%
// two, ~8% three, the rest four) the expected banked energy is about half
// the monolithic file's, 0.53× — the mechanism behind Table 5's
// register-read saving.
func TestExpectedRatioWithTable1Distribution(t *testing.T) {
	if r := expectedRatio([4]float64{0.53, 0.25, 0.08, 0.14}); !near(r, 0.53) {
		t.Fatalf("expected ratio %.3f, EXPERIMENTS.md quotes ~0.53", r)
	}
}

func TestHalfwordBankBetweenByteAndMono(t *testing.T) {
	b := byteBank.accessEnergy()
	h := halfwordBank.accessEnergy()
	m := baseline32.accessEnergy()
	if !(b < h && h < m) {
		t.Fatalf("ordering violated: %v %v %v", b, h, m)
	}
}

func TestExpectedRatioDegenerate(t *testing.T) {
	// All accesses full width: equals the worst case.
	if got, want := expectedRatio([4]float64{0, 0, 0, 1}), worstCaseRatio(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("full-width dist %.4f != worst case %.4f", got, want)
	}
	// All accesses one byte: one bank access.
	if got, want := expectedRatio([4]float64{1, 0, 0, 0}), byteBank.accessEnergy()/baseline32.accessEnergy(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("single-byte dist %.4f != one bank access %.4f", got, want)
	}
}
