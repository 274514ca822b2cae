package trace_test

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata golden capture")

// replayEvents replays cp under the default recoder and returns the full
// annotated event stream.
func replayEvents(t *testing.T, cp *trace.Capture) []trace.Event {
	t.Helper()
	rec := &eventRecorder{}
	if err := fullReplay(context.Background(), cp, defaultRecoder(t), rec); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return rec.events
}

// TestCaptureFileRoundTrip serializes a capture, decodes it, and demands
// the decoded capture replays a bit-identical event stream — every Exec
// field and every significance quantity — for each capture test bench.
func TestCaptureFileRoundTrip(t *testing.T) {
	for _, name := range captureTestBenches {
		cp, err := trace.CaptureRun(context.Background(), mustBench(t, name))
		if err != nil {
			t.Fatalf("%s: CaptureRun: %v", name, err)
		}
		var buf bytes.Buffer
		n, err := cp.WriteTo(&buf)
		if err != nil {
			t.Fatalf("%s: WriteTo: %v", name, err)
		}
		if n != int64(buf.Len()) {
			t.Errorf("%s: WriteTo reported %d bytes, wrote %d", name, n, buf.Len())
		}
		got, err := trace.ReadCaptureFrom(&buf)
		if err != nil {
			t.Fatalf("%s: ReadCaptureFrom: %v", name, err)
		}
		if got.Len() != cp.Len() || got.Statics() != cp.Statics() {
			t.Fatalf("%s: decoded %d rows/%d statics, want %d/%d",
				name, got.Len(), got.Statics(), cp.Len(), cp.Statics())
		}
		if got.Bench().Name != name {
			t.Fatalf("%s: decoded bench %q", name, got.Bench().Name)
		}
		want := replayEvents(t, cp)
		have := replayEvents(t, got)
		if len(want) != len(have) {
			t.Fatalf("%s: decoded capture replays %d events, want %d", name, len(have), len(want))
		}
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("%s: event %d diverges after round trip\noriginal: %+v\ndecoded:  %+v",
					name, i, want[i], have[i])
			}
		}
	}
}

// TestCaptureFileBytesPerInst enforces the persistent-format budget over
// the whole standard suite: the serialized size must average at or under
// CapFileMaxBytesPerInst bytes per recorded instruction for every
// benchmark.
func TestCaptureFileBytesPerInst(t *testing.T) {
	if testing.Short() {
		t.Skip("captures the full suite")
	}
	for _, b := range bench.All() {
		cp, err := trace.CaptureRun(context.Background(), b)
		if err != nil {
			t.Fatalf("%s: CaptureRun: %v", b.Name, err)
		}
		var buf, buf2 bytes.Buffer
		if _, err := cp.WriteTo(&buf); err != nil {
			t.Fatalf("%s: WriteTo: %v", b.Name, err)
		}
		if _, err := cp.WriteTo2(&buf2); err != nil {
			t.Fatalf("%s: WriteTo2: %v", b.Name, err)
		}
		perInst := float64(buf.Len()) / float64(cp.Len())
		perInst2 := float64(buf2.Len()) / float64(cp.Len())
		t.Logf("%s: %d insts, v1 %d bytes (%.2f B/inst), v2 %d bytes (%.2f B/inst)",
			b.Name, cp.Len(), buf.Len(), perInst, buf2.Len(), perInst2)
		if perInst > trace.CapFileMaxBytesPerInst {
			t.Errorf("%s: v1 %.2f B/inst exceeds budget %d", b.Name, perInst, trace.CapFileMaxBytesPerInst)
		}
		// The frame-independence overhead (predictor resets + footer index)
		// must stay inside the same budget.
		if perInst2 > trace.CapFileMaxBytesPerInst {
			t.Errorf("%s: v2 %.2f B/inst exceeds budget %d", b.Name, perInst2, trace.CapFileMaxBytesPerInst)
		}
	}
}

// TestCaptureFileCorruption checks the decoder rejects damaged streams
// instead of silently replaying garbage: bad magic, truncation anywhere,
// and a flipped payload bit (CRC).
func TestCaptureFileCorruption(t *testing.T) {
	cp, err := trace.CaptureRun(context.Background(), mustBench(t, captureTestBenches[0]))
	if err != nil {
		t.Fatalf("CaptureRun: %v", err)
	}
	var buf bytes.Buffer
	if _, err := cp.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	good := buf.Bytes()

	bad := append([]byte{}, good...)
	bad[0] ^= 0xFF
	if _, err := trace.ReadCaptureFrom(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	for _, cut := range []int{4, len(good) / 2, len(good) - 2} {
		if _, err := trace.ReadCaptureFrom(bytes.NewReader(good[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	bad = append([]byte{}, good...)
	bad[len(bad)/2] ^= 0x10 // payload bit flip: must fail CRC (or decode)
	if _, err := trace.ReadCaptureFrom(bytes.NewReader(bad)); err == nil {
		t.Error("flipped payload bit accepted")
	}
}

// TestCaptureFileDir exercises the directory helpers: write-then-read at
// the conventional path, atomic overwrite, and a decodable result.
func TestCaptureFileDir(t *testing.T) {
	dir := t.TempDir()
	cp, err := trace.CaptureRun(context.Background(), mustBench(t, captureTestBenches[0]))
	if err != nil {
		t.Fatalf("CaptureRun: %v", err)
	}
	path, err := trace.WriteCaptureFile(dir, cp)
	if err != nil {
		t.Fatalf("WriteCaptureFile: %v", err)
	}
	if want := trace.CaptureFilePath(dir, captureTestBenches[0]); path != want {
		t.Errorf("wrote to %q, conventional path is %q", path, want)
	}
	// Overwrite must go through the tmp+rename path and leave no droppings.
	if _, err := trace.WriteCaptureFile(dir, cp); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries after rewrite, want 1", len(entries))
	}
	got, err := trace.ReadCaptureFile(path)
	if err != nil {
		t.Fatalf("ReadCaptureFile: %v", err)
	}
	if got.Len() != cp.Len() {
		t.Errorf("loaded %d rows, want %d", got.Len(), cp.Len())
	}
}

// TestCaptureFileGolden pins both on-disk formats: each committed golden
// file must keep decoding to a capture that replays bit-identically to a
// fresh capture of the same benchmark, and the encoder must write that
// fresh capture back to the golden byte for byte. The SIGCAP01 golden
// additionally guards the compatibility promise that pre-SIGCAP02 spill
// directories stay readable. Any layout change breaks this test — bump the
// magic and regenerate with -update.
func TestCaptureFileGolden(t *testing.T) {
	const goldenBench = "dijkstra"
	fresh, err := trace.CaptureRun(context.Background(), mustBench(t, goldenBench))
	if err != nil {
		t.Fatalf("CaptureRun: %v", err)
	}
	want := replayEvents(t, fresh)
	for _, tc := range []struct {
		format string
		path   string
		write  func(*trace.Capture, *bytes.Buffer) error
	}{
		{"SIGCAP01", filepath.Join("testdata", goldenBench+trace.CapFileExt),
			func(cp *trace.Capture, buf *bytes.Buffer) error { _, err := cp.WriteTo(buf); return err }},
		{"SIGCAP02", filepath.Join("testdata", goldenBench+trace.CapFileExt+"2"),
			func(cp *trace.Capture, buf *bytes.Buffer) error { _, err := cp.WriteTo2(buf); return err }},
	} {
		var enc bytes.Buffer
		if err := tc.write(fresh, &enc); err != nil {
			t.Fatalf("%s: encoding fresh capture: %v", tc.format, err)
		}
		if *updateGolden {
			if err := os.WriteFile(tc.path, enc.Bytes(), 0o644); err != nil {
				t.Fatalf("%s: regenerating golden: %v", tc.format, err)
			}
			t.Logf("regenerated %s", tc.path)
		}
		golden, err := os.ReadFile(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Bytes(), golden) {
			t.Errorf("%s: encoding a fresh capture gives %d bytes that differ from the %d-byte golden",
				tc.format, enc.Len(), len(golden))
		}
		got, err := trace.ReadCaptureFile(tc.path)
		if err != nil {
			t.Fatalf("%s golden unreadable (regenerate with -update after a format change): %v", tc.format, err)
		}
		have := replayEvents(t, got)
		if len(want) != len(have) {
			t.Fatalf("%s golden replays %d events, fresh capture %d", tc.format, len(have), len(want))
		}
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("%s golden event %d diverges from fresh capture\nfresh:  %+v\ngolden: %+v",
					tc.format, i, want[i], have[i])
			}
		}
	}
}

// TestFileReplayCtxCancel pins the SIGTRC01 path's cancellation: a legacy
// trace loads into a capture, whose replay under a cancelled context must
// abort with its error instead of running the trace to exhaustion.
func TestFileReplayCtxCancel(t *testing.T) {
	b := mustBench(t, captureTestBenches[0])
	rc := defaultRecoder(t)
	data, execs := encodeTRC(t, b)
	r, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	cp, err := r.ReadCapture(b)
	if err != nil {
		t.Fatalf("ReadCapture: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := cp.ReplayBlocks(ctx, rc, nopConsumer); err == nil {
		t.Error("cancelled file replay succeeded")
	}

	// The uncancelled path still replays the whole trace.
	n := 0
	if err := cp.ReplayBlocks(context.Background(), rc, blockCollector(func(b *trace.Block) { n += b.Len() })); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if n != len(execs) {
		t.Errorf("replayed %d records, recorded %d", n, len(execs))
	}
}
