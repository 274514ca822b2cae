package sig

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"testing"
)

// Reference implementations: the original loop-and-compare definitions the
// branch-free hot-path versions must match bit for bit.

func ext3OfRef(v uint32) Ext3 {
	var e Ext3
	for i := 1; i < WordBytes; i++ {
		if byteOf(v, i) == signExtByte(byteOf(v, i-1)) {
			e |= 1 << (i - 1)
		}
	}
	return e
}

func sigHalvesRef(v uint32) int {
	lo := uint16(v)
	var ext uint16
	if lo&0x8000 != 0 {
		ext = 0xffff
	}
	if uint16(v>>16) == ext {
		return 1
	}
	return 2
}

func sigByteCountRef(e Ext3) int {
	n := 1
	for i := 1; i < WordBytes; i++ {
		if !e.IsExt(i) {
			n++
		}
	}
	return n
}

func checkOne(t *testing.T, v uint32) {
	t.Helper()
	if got, want := Ext3Of(v), ext3OfRef(v); got != want {
		t.Fatalf("Ext3Of(%#08x) = %03b, want %03b", v, got, want)
	}
	if got, want := SigHalves(v), sigHalvesRef(v); got != want {
		t.Fatalf("SigHalves(%#08x) = %d, want %d", v, got, want)
	}
}

// TestSigBitTrickBoundaries sweeps every value whose bytes come from the
// boundary set that can flip an extension decision, covering all sign-bit /
// all-zero / all-one byte interactions exhaustively (8^4 words), plus a
// window of values around every power of two.
func TestSigBitTrickBoundaries(t *testing.T) {
	boundary := []byte{0x00, 0x01, 0x7f, 0x80, 0x81, 0xfe, 0xff, 0x55}
	for _, b3 := range boundary {
		for _, b2 := range boundary {
			for _, b1 := range boundary {
				for _, b0 := range boundary {
					v := uint32(b0) | uint32(b1)<<8 | uint32(b2)<<16 | uint32(b3)<<24
					checkOne(t, v)
				}
			}
		}
	}
	for s := 0; s < 32; s++ {
		p := uint32(1) << s
		for d := uint32(0); d <= 4; d++ {
			checkOne(t, p-d)
			checkOne(t, p+d)
			checkOne(t, ^(p - d))
			checkOne(t, ^(p + d))
		}
	}
}

// TestSigBitTrickSampled runs a fast LCG over a few million words so the
// short-mode test still covers the space densely and deterministically.
func TestSigBitTrickSampled(t *testing.T) {
	const samples = 1 << 22
	x := uint32(0x2545f491)
	for i := 0; i < samples; i++ {
		x = x*1664525 + 1013904223
		checkOne(t, x)
	}
}

// TestSigBitTrickExhaustive proves Ext3Of/SigHalves equivalence over the
// entire 2^32 input space, split into contiguous ranges over
// runtime.GOMAXPROCS(0) goroutines. Each worker checks every value of its
// range with both checks and reports its first mismatch back; the test
// goroutine fails the test. It takes tens of seconds, so it is skipped in
// short mode and under the race detector (where it would take many
// minutes); the boundary and sampled sweeps above always run.
func TestSigBitTrickExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("full 2^32 sweep skipped in short mode")
	}
	if raceEnabled {
		t.Skip("full 2^32 sweep skipped under the race detector")
	}
	workers := uint64(runtime.GOMAXPROCS(0))
	const space = uint64(1) << 32
	fails := make([]string, workers)
	var wg sync.WaitGroup
	for w := range workers {
		lo, hi := space*w/workers, space*(w+1)/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			for x := lo; x < hi; x++ {
				v := uint32(x)
				if got, want := Ext3Of(v), ext3OfRef(v); got != want {
					fails[w] = fmt.Sprintf("Ext3Of(%#08x) = %03b, want %03b", v, got, want)
					return
				}
				if got, want := SigHalves(v), sigHalvesRef(v); got != want {
					fails[w] = fmt.Sprintf("SigHalves(%#08x) = %d, want %d", v, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, f := range fails {
		if f != "" {
			t.Error(f)
		}
	}
}

// TestSigByteCountAllFields checks the popcount SigByteCount against the
// loop reference for every extension field value (including the unused high
// bits staying masked off).
func TestSigByteCountAllFields(t *testing.T) {
	for e := 0; e < 256; e++ {
		got := Ext3(e).SigByteCount()
		want := sigByteCountRef(Ext3(e) & 0x7)
		if got != want {
			t.Fatalf("Ext3(%#x).SigByteCount() = %d, want %d", e, got, want)
		}
		if got != WordBytes-bits.OnesCount8(uint8(e)&0x7) {
			t.Fatalf("Ext3(%#x).SigByteCount() inconsistent with popcount", e)
		}
	}
}
