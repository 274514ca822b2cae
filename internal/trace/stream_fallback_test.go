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
// mmap and a failed mapping read frames positionally through an
// openCap2Handle handle, and ReadCaptureFile (the eager load
// Config.TraceNoMmap relies on to never map the file) reads them the same
// way. That handle must carry no mapping, its ReplayBlocks and
// ReplayBlocksOn must match the mapped handle's exactly, and
// ReadCaptureFile must rebuild the recorded capture's columns exactly.
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
		t.Fatal("openCap2Handle maps the file")
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

	// The eager load decodes through the same positional reads; its
	// columns must be the recorded capture's exactly.
	got, err := ReadCaptureFile(path)
	if err != nil {
		t.Fatalf("ReadCaptureFile: %v", err)
	}
	want, read := columns(cp), columns(got)
	for i := range want {
		if len(read[i]) != cp.Len() || !slices.Equal(want[i], read[i]) {
			t.Fatalf("ReadCaptureFile column %d differs from the recorded capture", i)
		}
	}
	if got.lastNextPC != cp.lastNextPC {
		t.Fatalf("ReadCaptureFile lastNextPC %#x, recorded %#x", got.lastNextPC, cp.lastNextPC)
	}
}
