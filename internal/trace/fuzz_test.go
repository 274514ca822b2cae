package trace_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/trace"
)

// FuzzReadCapture throws arbitrary bytes at the capture decoder: decode
// must never panic, and any input it accepts must re-encode to a canonical
// fixed point — enc(dec(input)) decoded and encoded again is
// byte-identical. (The input itself need not re-encode identically:
// non-canonical varints decode fine but are written back in canonical
// form.) Seeded with the committed golden capture and damaged variants of
// it, so the corpus starts from a valid file and steers early coverage
// toward every region's error paths.
func FuzzReadCapture(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "dijkstra"+trace.CapFileExt+"2"))
	if err != nil {
		f.Fatalf("seed: %v", err)
	}
	f.Add(golden)
	for _, cut := range []int{len(golden) / 3, len(golden) - 2} {
		f.Add(golden[:cut])
	}
	// Bit flips in the header, a frame payload, the footer index and the
	// tail's footer offset.
	for _, at := range []int{10, len(golden) / 2, len(golden) - 30, len(golden) - 14} {
		flipped := bytes.Clone(golden)
		flipped[at] ^= 0x04
		f.Add(flipped)
	}
	restamped := bytes.Clone(golden)
	copy(restamped, "SIGCAP01")
	f.Add(restamped)
	f.Add([]byte("SIGCAP02"))
	f.Add([]byte("SIGCAP02........SIGCAP02"))
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := trace.ReadCapture(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if _, err := cp.WriteTo2(&first); err != nil {
			t.Fatalf("re-encoding accepted capture: %v", err)
		}
		cp2, err := trace.ReadCapture(bytes.NewReader(first.Bytes()), int64(first.Len()))
		if err != nil {
			t.Fatalf("decoding own encoding: %v", err)
		}
		var second bytes.Buffer
		if _, err := cp2.WriteTo2(&second); err != nil {
			t.Fatalf("re-encoding second pass: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("encode/decode not a fixed point: %d vs %d bytes", first.Len(), second.Len())
		}
	})
}
