package trace

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestMappedFunctCountsFlippedByte flips one byte at a time inside the
// frames of the committed SIGCAP02 golden, on the open handle's file:
// FunctCounts reads frames positionally, so it sees each flip, and it must
// fail with a *CorruptError — never return a count, let alone a different
// one. Every frame is hit at its first byte, its slot column, a byte past
// the slot column and its last byte, plus seeded random positions, with
// seeded random nonzero masks.
func TestMappedFunctCountsFlippedByte(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "dijkstra"+CapFileExt+"2"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dijkstra"+CapFileExt)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	mc, err := OpenMappedCapture(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	want, err := mc.FunctCounts()
	if err != nil {
		t.Fatalf("intact file: %v", err)
	}
	w, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	rng := rand.New(rand.NewSource(1))
	flips := 0
	for f, fr := range mc.ix.frames {
		lo, hi := mc.ix.frameSpan(f)
		bm := int64(hi-lo+7) / 8
		positions := []int64{0, bm, bm + int64(hi-lo), int64(fr.len) - 1}
		for k := 0; k < 64; k++ {
			positions = append(positions, rng.Int63n(int64(fr.len)))
		}
		for _, p := range positions {
			off := fr.off + p
			orig := data[off]
			mask := byte(1 + rng.Intn(255))
			if _, err := w.WriteAt([]byte{orig ^ mask}, off); err != nil {
				t.Fatal(err)
			}
			got, err := mc.FunctCounts()
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Errorf("frame %d byte %d ^%#02x: FunctCounts = %v, %v; want a CorruptError", f, p, mask, got, err)
			}
			if _, err := w.WriteAt([]byte{orig}, off); err != nil {
				t.Fatal(err)
			}
			flips++
		}
	}
	if got, err := mc.FunctCounts(); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("restored file: FunctCounts = %v, %v; want %v", got, err, want)
	}
	t.Logf("%d flips over %d frames", flips, len(mc.ix.frames))
}
