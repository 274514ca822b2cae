package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// frameDecoder is the signature decodeCap2Frame and its reference share.
type frameDecoder func(payload []byte, fr cap2Frame, nStatics uint64,
	slot, pc, srcA, srcB, result, sig []uint32, sc *cap2Scratch) error

// frameCols is one frame's six decoded columns: slot, pc, srcA, srcB,
// result, sig.
type frameCols [6][]uint32

func newFrameCols(rows int) frameCols {
	var c frameCols
	for i := range c {
		c[i] = make([]uint32, rows)
	}
	return c
}

func (c frameCols) decode(dec frameDecoder, payload []byte, fr cap2Frame, nStatics uint64, sc *cap2Scratch) error {
	return dec(payload, fr, nStatics, c[0], c[1], c[2], c[3], c[4], c[5], sc)
}

// goldenFrames opens the committed SIGCAP02 golden and returns its index
// with the whole file image, so every frame can be taken under its real
// footer entry.
func goldenFrames(tb testing.TB) (*cap2Index, []byte) {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "dijkstra"+CapFileExt+"2"))
	if err != nil {
		tb.Fatal(err)
	}
	ix, err := openCap2Index(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		tb.Fatalf("golden index: %v", err)
	}
	return ix, data
}

// FuzzDecodeCap2Frame runs the frame decoder past the CRC: the fuzzed
// payload gets a matching checksum, so its structural checks (varint
// truncation and overflow, slot range, firstPC, trailing bytes) all see
// arbitrary bytes. decodeCap2Frame and the closure-based reference must
// agree: both accept with identical columns, or both return a
// *CorruptError. rows maps onto 1..FrameRows.
func FuzzDecodeCap2Frame(f *testing.F) {
	ix, data := goldenFrames(f)
	for i, fr := range ix.frames {
		lo, hi := ix.frameSpan(i)
		f.Add(ix.frameBytes(data, i), uint16(hi-lo-1), uint16(len(ix.statics)), fr.firstPC)
	}
	f.Fuzz(func(t *testing.T, payload []byte, rows, nStatics uint16, firstPC uint32) {
		fr := cap2Frame{crc: crc32.ChecksumIEEE(payload), firstPC: firstPC}
		n := int(rows)%FrameRows + 1
		got, want := newFrameCols(n), newFrameCols(n)
		errGot := got.decode(decodeCap2Frame, payload, fr, uint64(nStatics), newCap2Scratch(int(nStatics)))
		errWant := want.decode(decodeCap2FrameRef, payload, fr, uint64(nStatics), newCap2Scratch(int(nStatics)))
		var ce *CorruptError
		switch {
		case errGot == nil && errWant == nil:
			for c := range got {
				if !slices.Equal(got[c], want[c]) {
					t.Fatalf("column %d differs from the reference", c)
				}
			}
		case errGot != nil && errWant != nil:
			if !errors.As(errGot, &ce) || !errors.As(errWant, &ce) {
				t.Fatalf("decoder %v, reference %v: want CorruptError from both", errGot, errWant)
			}
		default:
			t.Fatalf("decoder %v, reference %v", errGot, errWant)
		}
	})
}

// columnStarts returns the offset of each of the six varint columns of a
// well-formed frame payload of rows rows, then the payload end.
func columnStarts(t *testing.T, payload []byte, rows int) [7]int {
	t.Helper()
	var starts [7]int
	off := (rows + 7) / 8
	for c := 0; c < 6; c++ {
		starts[c] = off
		for i := 0; i < rows; i++ {
			_, n := binary.Uvarint(payload[off:])
			if n <= 0 {
				t.Fatalf("golden frame column %d row %d undecodable", c, i)
			}
			off += n
		}
	}
	starts[6] = off
	return starts
}

// spliceVarint replaces the varint at p[at:] with repl, in a copy.
func spliceVarint(p []byte, at int, repl []byte) []byte {
	_, n := binary.Uvarint(p[at:])
	return slices.Concat(p[:at], repl, p[at+n:])
}

// TestFrameDecodeCorrupt damages a real frame after the CRC — every case
// carries a recomputed checksum — so each structural check must reject it
// on its own, as a *CorruptError and without panicking, in the decoder
// and in the reference alike. A non-canonical zero (0x80 0x00) is not
// damage: it decodes to the same columns.
func TestFrameDecodeCorrupt(t *testing.T) {
	ix, data := goldenFrames(t)
	const f = 0
	lo, hi := ix.frameSpan(f)
	rows := hi - lo
	good := ix.frameBytes(data, f)
	nStatics := uint64(len(ix.statics))
	if nStatics < 2 {
		t.Fatalf("golden has %d statics; the wide-slot case needs 2", nStatics)
	}
	starts := columnStarts(t, good, rows)
	uvarint := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	truncatedAt := func(c int) []byte { return append(slices.Clone(good[:starts[c]]), 0x80) }

	cases := []struct {
		name    string
		payload []byte
		pcFlip  uint32 // XORed into the footer entry's firstPC
	}{
		{"slot equal to nStatics", spliceVarint(good, starts[0], uvarint(nStatics)), 0},
		{"slot 2^32+1", spliceVarint(good, starts[0], uvarint(1<<32+1)), 0},
		{"truncated slot varint", truncatedAt(0), 0},
		{"truncated pc varint", truncatedAt(1), 0},
		{"truncated srcA varint", truncatedAt(2), 0},
		{"truncated srcB varint", truncatedAt(3), 0},
		{"truncated result varint", truncatedAt(4), 0},
		{"truncated sig varint", truncatedAt(5), 0},
		{"11-byte overflowing varint", spliceVarint(good, starts[2], append(bytes.Repeat([]byte{0x80}, 10), 0)), 0},
		{"one trailing byte", append(slices.Clone(good), 0), 0},
		{"firstPC mismatch", good, 4},
		{"shorter than the taken bitmap", good[:(rows+7)/8-1], 0},
	}
	for _, tc := range cases {
		fr := ix.frames[f]
		fr.crc = crc32.ChecksumIEEE(tc.payload)
		fr.firstPC ^= tc.pcFlip
		for _, d := range []struct {
			name string
			dec  frameDecoder
		}{{"decoder", decodeCap2Frame}, {"reference", decodeCap2FrameRef}} {
			err := newFrameCols(rows).decode(d.dec, tc.payload, fr, nStatics, newCap2Scratch(int(nStatics)))
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Errorf("%s: %s returned %v, want CorruptError", tc.name, d.name, err)
			}
		}
	}

	// Non-canonical zero: the first one-byte zero of the sig column,
	// re-encoded as 0x80 0x00.
	zero := -1
	for off := starts[5]; off < starts[6]; {
		v, n := binary.Uvarint(good[off:])
		if v == 0 && n == 1 {
			zero = off
			break
		}
		off += n
	}
	if zero < 0 {
		t.Fatal("golden frame's sig column has no one-byte zero")
	}
	want := newFrameCols(rows)
	if err := want.decode(decodeCap2Frame, good, ix.frames[f], nStatics, newCap2Scratch(int(nStatics))); err != nil {
		t.Fatalf("clean frame: %v", err)
	}
	padded := spliceVarint(good, zero, []byte{0x80, 0x00})
	fr := ix.frames[f]
	fr.crc = crc32.ChecksumIEEE(padded)
	got := newFrameCols(rows)
	if err := got.decode(decodeCap2Frame, padded, fr, nStatics, newCap2Scratch(int(nStatics))); err != nil {
		t.Fatalf("non-canonical zero rejected: %v", err)
	}
	for c := range want {
		if !slices.Equal(got[c], want[c]) {
			t.Fatalf("non-canonical zero changes column %d", c)
		}
	}
}

// TestFrameDecodeAllocFree pins the decoder's steady state: decoding a
// frame into reused columns and scratch allocates nothing.
func TestFrameDecodeAllocFree(t *testing.T) {
	ix, data := goldenFrames(t)
	lo, hi := ix.frameSpan(0)
	cols := newFrameCols(hi - lo)
	sc := newCap2Scratch(len(ix.statics))
	payload := ix.frameBytes(data, 0)
	var err error
	allocs := testing.AllocsPerRun(20, func() {
		err = cols.decode(decodeCap2Frame, payload, ix.frames[0], uint64(len(ix.statics)), sc)
	})
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if allocs != 0 {
		t.Errorf("decodeCap2Frame allocates %.1f per frame", allocs)
	}
}
