package trace_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestCaptureFile2RoundTrip serializes each test bench as SIGCAP02,
// decodes it through the eager entry point, and demands a bit-identical
// replay plus a canonical re-encoding.
func TestCaptureFile2RoundTrip(t *testing.T) {
	for _, name := range captureTestBenches {
		cp, err := trace.CaptureRun(context.Background(), mustBench(t, name))
		if err != nil {
			t.Fatalf("%s: CaptureRun: %v", name, err)
		}
		var buf bytes.Buffer
		n, err := cp.WriteTo2(&buf)
		if err != nil {
			t.Fatalf("%s: WriteTo2: %v", name, err)
		}
		if n != int64(buf.Len()) {
			t.Errorf("%s: WriteTo2 reported %d bytes, wrote %d", name, n, buf.Len())
		}
		got, err := readCapture(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: ReadCapture: %v", name, err)
		}
		if got.Len() != cp.Len() || got.Statics() != cp.Statics() || got.Bench().Name != name {
			t.Fatalf("%s: decoded %d rows/%d statics/%q, want %d/%d/%q",
				name, got.Len(), got.Statics(), got.Bench().Name, cp.Len(), cp.Statics(), name)
		}
		want := replayEvents(t, cp)
		have := replayEvents(t, got)
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("%s: event %d diverges after v2 round trip", name, i)
			}
		}
		// Round-trip must be byte-stable: the decoded capture re-encodes
		// to exactly the bytes it came from.
		var again bytes.Buffer
		if _, err := got.WriteTo2(&again); err != nil {
			t.Fatalf("%s: re-encode: %v", name, err)
		}
		if !bytes.Equal(buf.Bytes(), again.Bytes()) {
			t.Fatalf("%s: re-encoded SIGCAP02 differs (%d vs %d bytes)", name, buf.Len(), again.Len())
		}
	}
}

// TestCaptureFile2Corruption damages every structural region of a SIGCAP02
// image — leading magic, trailing magic, footer, header, frame payload,
// truncation — and requires the decoder to reject each with a
// *CorruptError instead of panicking or replaying garbage.
func TestCaptureFile2Corruption(t *testing.T) {
	cp, err := trace.CaptureRun(context.Background(), mustBench(t, captureTestBenches[0]))
	if err != nil {
		t.Fatalf("CaptureRun: %v", err)
	}
	var buf bytes.Buffer
	if _, err := cp.WriteTo2(&buf); err != nil {
		t.Fatalf("WriteTo2: %v", err)
	}
	good := buf.Bytes()

	check := func(label string, bad []byte) {
		t.Helper()
		_, err := readCapture(bad)
		if err == nil {
			t.Errorf("%s accepted", label)
			return
		}
		var ce *trace.CorruptError
		if !errors.As(err, &ce) {
			t.Errorf("%s: error %v, want CorruptError", label, err)
		}
	}

	flip := func(at int) []byte {
		bad := bytes.Clone(good)
		bad[at] ^= 0x10
		return bad
	}
	check("flipped leading magic", flip(0))
	check("flipped trailing magic", flip(len(good)-1))
	check("flipped footer-offset byte", flip(len(good)-14))
	check("flipped header byte", flip(10))
	check("flipped frame payload byte", flip(len(good)/2))
	for _, cut := range []int{4, 40, len(good) / 2, len(good) - 2} {
		check("truncation", good[:cut])
	}
}

// TestCaptureFile2AdversarialHeader pins the hardened header handling: a
// well-formed SIGCAP02 container (every CRC valid) whose header claims
// counts that cannot possibly fit the input must be rejected, typed, by
// the size guard — before any column allocation.
func TestCaptureFile2AdversarialHeader(t *testing.T) {
	b := mustBench(t, "dijkstra")
	header := func(nStatics, rows uint64) []byte {
		h := binary.AppendUvarint(nil, uint64(len(b.Name)))
		h = append(h, b.Name...)
		h = binary.AppendUvarint(h, nStatics)
		h = append(h, 0, 0, 0, 0) // one raw word, whatever the claim
		h = binary.AppendUvarint(h, rows)
		return append(h, 0, 0, 0, 0) // lastNext
	}
	for _, tc := range []struct {
		label  string
		fields []byte
		reason string
	}{
		{"statics claim", header(1<<19, 0), "statics count"},
		{"rows claim", header(1, b.MaxInsts), "cannot fit"},
		{"rows over the bench limit", header(1, b.MaxInsts+1), "exceed"},
	} {
		_, err := readCapture(cap2Container(tc.fields))
		var ce *trace.CorruptError
		if !errors.As(err, &ce) || !strings.Contains(ce.Reason, tc.reason) {
			t.Errorf("%s: %v, want a CorruptError about %q", tc.label, err, tc.reason)
		}
	}
}

// TestReaderRejectsBadMagic checks that both file readers refuse anything
// but SIGCAP02 — the retired SIGCAP01 capture and SIGTRC01 event-trace
// formats included — as a *CorruptError naming the magic found, so a trace
// dir treats a legacy file as a miss and sigtrace can say what it got.
func TestReaderRejectsBadMagic(t *testing.T) {
	cp, err := trace.CaptureRun(context.Background(), mustBench(t, captureTestBenches[0]))
	if err != nil {
		t.Fatalf("CaptureRun: %v", err)
	}
	var buf bytes.Buffer
	if _, err := cp.WriteTo2(&buf); err != nil {
		t.Fatalf("WriteTo2: %v", err)
	}
	restamped := bytes.Clone(buf.Bytes())
	copy(restamped, "SIGCAP01")
	// The head of a SIGCAP01 file: name, then a statics count.
	v1 := append([]byte("SIGCAP01\x08dijkstra"), binary.AppendUvarint(nil, 1<<19)...)
	// A SIGTRC01 header and one zeroed 41-byte record.
	trc := append([]byte("SIGTRC01"), make([]byte, 41)...)

	dir := t.TempDir()
	for _, tc := range []struct {
		label string
		data  []byte
		magic string // named in the error, when the input has one
	}{
		{"SIGCAP01 header", v1, `"SIGCAP01"`},
		{"SIGCAP02 file restamped SIGCAP01", restamped, `"SIGCAP01"`},
		{"SIGTRC01 trace", trc, `"SIGTRC01"`},
		{"text", []byte("not a capture"), `"not a ca"`},
		{"empty", nil, ""},
	} {
		path := filepath.Join(dir, "bad"+trace.CapFileExt)
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, eagerErr := trace.ReadCaptureFile(path)
		mc, mappedErr := trace.OpenMappedCapture(path)
		if mappedErr == nil {
			mc.Close()
		}
		for reader, err := range map[string]error{"ReadCaptureFile": eagerErr, "OpenMappedCapture": mappedErr} {
			var ce *trace.CorruptError
			if !errors.As(err, &ce) {
				t.Errorf("%s: %s: %v, want CorruptError", tc.label, reader, err)
			} else if !strings.Contains(ce.Reason, tc.magic) {
				t.Errorf("%s: %s: %q does not name the magic %s", tc.label, reader, ce.Reason, tc.magic)
			}
		}
	}
}

// TestOpenMappedCaptureRejectsV1 checks that a SIGCAP01 capture left in a
// trace dir under the benchmark's own file name is refused by the mapped
// tier as a *CorruptError naming the magic, and that LoadCaptureFile, in
// both its mapped and eager modes, reports it as an error (a miss) rather
// than replaying it.
func TestOpenMappedCaptureRejectsV1(t *testing.T) {
	b := mustBench(t, captureTestBenches[0])
	cp, err := trace.CaptureRun(context.Background(), b)
	if err != nil {
		t.Fatalf("CaptureRun: %v", err)
	}
	dir := t.TempDir()
	path, err := trace.WriteCaptureFile(dir, cp)
	if err != nil {
		t.Fatalf("WriteCaptureFile: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, "SIGCAP01")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	mc, err := trace.OpenMappedCapture(path)
	if err == nil {
		mc.Close()
	}
	var ce *trace.CorruptError
	if !errors.As(err, &ce) || !strings.Contains(ce.Reason, `"SIGCAP01"`) {
		t.Fatalf("OpenMappedCapture on SIGCAP01: %v, want a CorruptError naming the magic", err)
	}
	for _, mapped := range []bool{true, false} {
		rep, err := trace.LoadCaptureFile(dir, b, mapped)
		if err == nil {
			if c, ok := rep.(interface{ Close() error }); ok {
				c.Close()
			}
			t.Fatalf("LoadCaptureFile(mapped=%v) loaded a SIGCAP01 file", mapped)
		}
	}
}

// readCapture decodes an in-memory SIGCAP02 image through ReadCapture.
func readCapture(data []byte) (*trace.Capture, error) {
	return trace.ReadCapture(bytes.NewReader(data), int64(len(data)))
}

// cap2Container wraps header fields (everything after the magic, before
// the header CRC) in a frameless SIGCAP02 file whose every CRC is valid.
func cap2Container(fields []byte) []byte {
	hdr := append([]byte("SIGCAP02"), fields...)
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))
	footerOff := uint64(len(hdr))
	out := binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(nil))
	out = binary.LittleEndian.AppendUint64(out, footerOff)
	return append(out, "SIGCAP02"...)
}
