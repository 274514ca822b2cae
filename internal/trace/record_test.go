package trace

import (
	"context"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/cpu"
)

// TestRecordAllocFree pins recording at zero heap allocations per row:
// one Step plus the recorder's append, once the statics are known and
// between the recorder's chunk allocations.
func TestRecordAllocFree(t *testing.T) {
	b, _ := bench.ByName("jpegdct")
	c, err := b.NewCPU()
	if err != nil {
		t.Fatal(err)
	}
	r := recorder{cp: NewCapture(b)}
	var e cpu.Exec
	row := func() {
		if err := c.Step(&e); err != nil {
			t.Fatal(err)
		}
		r.record(&e, c.Decoded())
	}
	for i := 0; i < 40000; i++ {
		row()
	}
	if allocs := testing.AllocsPerRun(1000, row); allocs != 0 {
		t.Errorf("recording allocates %.1f per row", allocs)
	}
}

// TestRecordIgnoresAnotherCapturesSlots records a machine's run in two
// captures, one after the other. The second starts from decode-table
// entries whose slots the first capture stored; it must still match a
// capture of the same rows recorded by hand, which never sees the table.
func TestRecordIgnoresAnotherCapturesSlots(t *testing.T) {
	const skip, rows = 5000, 20000
	ctx := context.Background()
	b, _ := bench.ByName("dijkstra")
	c, err := b.NewCPU()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RecordCPU(ctx, c, skip); err != nil {
		t.Fatal(err)
	}
	got, err := RecordCPU(ctx, c, rows)
	if err != nil {
		t.Fatal(err)
	}

	ref, _ := b.NewCPU()
	want := NewCapture(bench.Benchmark{})
	var e cpu.Exec
	for i := 0; i < skip+rows; i++ {
		if err := ref.Step(&e); err != nil {
			t.Fatal(err)
		}
		if i >= skip {
			want.Record(e)
		}
	}
	want.Finalize()
	if !slices.Equal(got.statics, want.statics) {
		t.Fatalf("statics differ: %d recorded, %d by hand", len(got.statics), len(want.statics))
	}
	gc, wc := got.cols(), want.cols()
	for i := range gc {
		if !slices.Equal(*gc[i], *wc[i]) {
			t.Fatalf("column %d differs from the capture recorded by hand", i)
		}
	}
}
