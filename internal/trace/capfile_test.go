package trace_test

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/pipeline"
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

// TestRecordReplayEquivalence records a benchmark to a capture file, loads
// it back, and demands the replay reproduce the exact pipeline result of
// the streaming interpreter: the record-once, study-many contract sigtrace serves.
func TestRecordReplayEquivalence(t *testing.T) {
	ctx := context.Background()
	b := mustBench(t, "g711dec")
	rc := defaultRecoder(t)

	interpreted := pipeline.NewByteSerial()
	if err := interpretOn(ctx, b, nil, rc, interpreted); err != nil {
		t.Fatal(err)
	}
	cp, err := trace.CaptureRun(ctx, b)
	if err != nil {
		t.Fatalf("CaptureRun: %v", err)
	}
	path, err := trace.WriteCaptureFile(t.TempDir(), cp)
	if err != nil {
		t.Fatalf("WriteCaptureFile: %v", err)
	}
	loaded, err := trace.ReadCaptureFile(path)
	if err != nil {
		t.Fatalf("ReadCaptureFile: %v", err)
	}
	replayed := pipeline.NewByteSerial()
	if err := loaded.ReplayBlocks(ctx, rc, replayed); err != nil {
		t.Fatal(err)
	}
	if got, want := replayed.Result(), interpreted.Result(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay: %+v\ninterpreted: %+v", got, want)
	}
}

// TestCaptureFileBytesPerInst enforces the persistent-format budget over
// the whole standard suite: the serialized size, frame-independence
// overhead (predictor resets + footer index) included, must average at or
// under CapFileMaxBytesPerInst bytes per recorded instruction for every
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
		var buf bytes.Buffer
		if _, err := cp.WriteTo2(&buf); err != nil {
			t.Fatalf("%s: WriteTo2: %v", b.Name, err)
		}
		perInst := float64(buf.Len()) / float64(cp.Len())
		t.Logf("%s: %d insts, %d bytes (%.2f B/inst)", b.Name, cp.Len(), buf.Len(), perInst)
		if perInst > trace.CapFileMaxBytesPerInst {
			t.Errorf("%s: %.2f B/inst exceeds budget %d", b.Name, perInst, trace.CapFileMaxBytesPerInst)
		}
	}
}

// TestCaptureFileCorruption checks the file entry points reject damaged
// capture files on disk instead of silently replaying garbage: bad magic
// and truncation anywhere fail both ReadCaptureFile and the mapped open,
// and a flipped payload bit fails ReadCaptureFile's frame CRC (the mapped
// tier meets it at replay; see TestStreamCorruptFrame).
func TestCaptureFileCorruption(t *testing.T) {
	cp, err := trace.CaptureRun(context.Background(), mustBench(t, captureTestBenches[0]))
	if err != nil {
		t.Fatalf("CaptureRun: %v", err)
	}
	dir := t.TempDir()
	path, err := trace.WriteCaptureFile(dir, cp)
	if err != nil {
		t.Fatalf("WriteCaptureFile: %v", err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, bad []byte, mapped bool) {
		t.Helper()
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		var ce *trace.CorruptError
		if _, err := trace.ReadCaptureFile(path); !errors.As(err, &ce) {
			t.Errorf("%s: ReadCaptureFile: %v, want CorruptError", label, err)
		}
		if !mapped {
			return
		}
		if mc, err := trace.OpenMappedCapture(path); !errors.As(err, &ce) {
			t.Errorf("%s: OpenMappedCapture: %v, want CorruptError", label, err)
			if err == nil {
				mc.Close()
			}
		}
	}

	bad := bytes.Clone(good)
	bad[0] ^= 0xFF
	check("bad magic", bad, true)
	for _, cut := range []int{4, len(good) / 2, len(good) - 2} {
		check(fmt.Sprintf("truncation at %d", cut), good[:cut], true)
	}
	bad = bytes.Clone(good)
	bad[len(bad)/2] ^= 0x10 // inside a frame payload
	check("flipped payload bit", bad, false)
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
	// A capture of a program outside the suite could never load, so it
	// must not be written.
	user := mustBench(t, captureTestBenches[0])
	user.Name = "user:" + user.Name
	ucp, err := trace.CaptureRun(context.Background(), user)
	if err != nil {
		t.Fatalf("CaptureRun: %v", err)
	}
	if _, err := trace.WriteCaptureFile(dir, ucp); err == nil {
		t.Error("wrote a capture of a benchmark outside the suite")
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

	// LoadCaptureFile serves either tier, and only to the benchmark the
	// file was recorded from.
	b := cp.Bench()
	for _, mapped := range []bool{false, true} {
		rep, err := trace.LoadCaptureFile(dir, b, mapped)
		if err != nil {
			t.Fatalf("LoadCaptureFile(mapped=%v): %v", mapped, err)
		}
		if mc, ok := rep.(*trace.MappedCapture); ok != mapped {
			t.Errorf("LoadCaptureFile(mapped=%v) returned %T", mapped, rep)
		} else if ok {
			mc.Close()
		}
		stale := b
		stale.Checksum++
		if _, err := trace.LoadCaptureFile(dir, stale, mapped); err == nil {
			t.Errorf("LoadCaptureFile(mapped=%v) served a capture to another build of %s", mapped, b.Name)
		}
	}
}

// TestCaptureFileGolden pins the on-disk format: the committed golden file
// must keep decoding to a capture that replays bit-identically to a fresh
// capture of the same benchmark, and the encoder must write that fresh
// capture back to the golden byte for byte. Any layout change breaks this
// test — bump the magic and regenerate with -update.
func TestCaptureFileGolden(t *testing.T) {
	const goldenBench = "dijkstra"
	path := filepath.Join("testdata", goldenBench+trace.CapFileExt+"2")
	fresh, err := trace.CaptureRun(context.Background(), mustBench(t, goldenBench))
	if err != nil {
		t.Fatalf("CaptureRun: %v", err)
	}
	var enc bytes.Buffer
	if _, err := fresh.WriteTo2(&enc); err != nil {
		t.Fatalf("encoding fresh capture: %v", err)
	}
	if *updateGolden {
		if err := os.WriteFile(path, enc.Bytes(), 0o644); err != nil {
			t.Fatalf("regenerating golden: %v", err)
		}
		t.Logf("regenerated %s", path)
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc.Bytes(), golden) {
		t.Errorf("encoding a fresh capture gives %d bytes that differ from the %d-byte golden",
			enc.Len(), len(golden))
	}
	got, err := trace.ReadCaptureFile(path)
	if err != nil {
		t.Fatalf("golden unreadable (regenerate with -update after a format change): %v", err)
	}
	want := replayEvents(t, fresh)
	have := replayEvents(t, got)
	if len(want) != len(have) {
		t.Fatalf("golden replays %d events, fresh capture %d", len(have), len(want))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("golden event %d diverges from fresh capture\nfresh:  %+v\ngolden: %+v",
				i, want[i], have[i])
		}
	}
}
