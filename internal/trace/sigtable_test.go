package trace

import (
	"math/rand"
	"testing"

	"repro/internal/sig"
)

// TestMarkPairMatchesExt3Of checks the two-word marking against
// sig.Ext3Of. Each marking bit depends only on its own nine-bit window, so
// the test sweeps every pattern of every window of both words, under
// random surrounding bits, and then structured and random pairs.
func TestMarkPairMatchesExt3Of(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	check := func(lo, hi uint32) {
		if got, want := markPair(lo, hi), uint32(sig.Ext3Of(lo))|uint32(sig.Ext3Of(hi))<<3; got != want {
			t.Fatalf("markPair(%#08x, %#08x) = %#o, want %#o", lo, hi, got, want)
		}
	}
	for _, shift := range []uint{7, 15, 23} {
		for w := uint32(0); w < 1<<9; w++ {
			for range 16 {
				v := r.Uint32()&^(0x1ff<<shift) | w<<shift
				check(v, r.Uint32())
				check(r.Uint32(), v)
			}
		}
	}
	vals := structuredValues()
	for _, lo := range vals {
		for _, hi := range vals {
			check(lo, hi)
		}
	}
	for range 1 << 20 {
		check(r.Uint32(), r.Uint32())
	}
}
