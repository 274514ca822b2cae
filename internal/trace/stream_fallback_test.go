package trace

import (
	"context"
	"os"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/icomp"
)

// eventLog records every replayed row as an Event.
type eventLog struct{ events []Event }

func (l *eventLog) ConsumeBlock(b *Block) {
	var ev Event
	for i := range b.Slot {
		b.EventAt(i, &ev)
		l.events = append(l.events, ev)
	}
}

// TestStreamReadAtFallback drives the io.ReaderAt path: a platform without
// mmap, a failed mapping, and every ReadCaptureFile of a SIGCAP02 file
// (the eager load Config.TraceNoMmap relies on to never map the file) read
// frames positionally through an openCap2Handle handle. That handle must
// carry no mapping, and its ReplayBlocks, ReplayBlocksOn and Materialize,
// and ReadCaptureFile, must match the mapped handle's exactly.
func TestStreamReadAtFallback(t *testing.T) {
	ctx := context.Background()
	b, ok := bench.ByName("g711dec")
	if !ok {
		t.Fatal("unknown benchmark g711dec")
	}
	cp, err := CaptureRun(ctx, b)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	path, err := WriteCaptureFile(t.TempDir(), cp)
	if err != nil {
		t.Fatalf("WriteCaptureFile: %v", err)
	}
	mapped, err := OpenMappedCapture(path)
	if err != nil {
		t.Fatalf("OpenMappedCapture: %v", err)
	}
	t.Cleanup(func() { mapped.Close() })
	if !mapped.Mapped() {
		t.Log("platform cannot mmap: both handles read positionally")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	fallback, err := openCap2Handle(f)
	if err != nil {
		t.Fatalf("openCap2Handle: %v", err)
	}
	if fallback.Mapped() {
		t.Fatal("the handle ReadCaptureFile decodes through maps the file")
	}

	rc := icomp.MustNewRecoder(icomp.DefaultTopFuncts())
	replays := map[string]func(*MappedCapture, *eventLog) error{
		"ReplayBlocks": func(mc *MappedCapture, l *eventLog) error { return mc.ReplayBlocks(ctx, rc, l) },
		"ReplayBlocksOn": func(mc *MappedCapture, l *eventLog) error {
			m, err := mc.NewMemory()
			if err != nil {
				return err
			}
			return mc.ReplayBlocksOn(ctx, m, rc, l)
		},
	}
	for name, replay := range replays {
		var want, got eventLog
		if err := replay(mapped, &want); err != nil {
			t.Fatalf("mapped %s: %v", name, err)
		}
		if err := replay(fallback, &got); err != nil {
			t.Fatalf("fallback %s: %v", name, err)
		}
		if len(want.events) != cp.Len() || !slices.Equal(want.events, got.events) {
			t.Fatalf("%s: fallback replays %d events, mapped %d, capture %d rows, or they differ",
				name, len(got.events), len(want.events), cp.Len())
		}
	}

	want, err := mapped.Materialize()
	if err != nil {
		t.Fatalf("mapped Materialize: %v", err)
	}
	eager, err := ReadCaptureFile(path)
	if err != nil {
		t.Fatalf("ReadCaptureFile: %v", err)
	}
	got, err := fallback.Materialize()
	if err != nil {
		t.Fatalf("fallback Materialize: %v", err)
	}
	for name, got := range map[string]*Capture{"fallback Materialize": got, "ReadCaptureFile": eager} {
		for i, pair := range [][2][]uint32{
			{want.slot, got.slot}, {want.pc, got.pc}, {want.srcA, got.srcA},
			{want.srcB, got.srcB}, {want.result, got.result}, {want.sig, got.sig},
		} {
			if len(pair[0]) != cp.Len() || !slices.Equal(pair[0], pair[1]) {
				t.Fatalf("%s column %d differs from the mapped Materialize", name, i)
			}
		}
		if got.lastNextPC != want.lastNextPC {
			t.Fatalf("%s lastNextPC %#x, mapped %#x", name, got.lastNextPC, want.lastNextPC)
		}
	}
}
