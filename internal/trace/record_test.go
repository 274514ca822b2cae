package trace

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/cpu"
	"repro/internal/icomp"
	"repro/internal/isa"
)

// columns returns cp's six dynamic columns with its chunks laid end to end.
func columns(cp *Capture) chunk {
	var cols chunk
	for c := range cp.chunks {
		for i, col := range cp.chunkAt(c) {
			cols[i] = append(cols[i], col...)
		}
	}
	return cols
}

// TestRecordAllocFree pins recording at zero heap allocations per row:
// one Step plus the chunk recorder's writes and table lookup, once the
// statics are known and between chunk allocations.
func TestRecordAllocFree(t *testing.T) {
	b, _ := bench.ByName("jpegdct")
	c, err := b.NewCPU()
	if err != nil {
		t.Fatal(err)
	}
	cp := NewCapture(b)
	var e cpu.Exec
	row := func() {
		if err := c.Step(&e); err != nil {
			t.Fatal(err)
		}
		cp.record(&e, c.Decoded())
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
	if !slices.Equal(got.statics, want.statics) {
		t.Fatalf("statics differ: %d recorded, %d by hand", len(got.statics), len(want.statics))
	}
	gc, wc := columns(got), columns(want)
	for i := range gc {
		if !slices.Equal(gc[i], wc[i]) {
			t.Fatalf("column %d differs from the capture recorded by hand", i)
		}
	}
}

// TestRecordChunkBoundaries records dijkstra through RecordCPU cut off at
// and around the chunk size, and whole. For each capture: its chunks are
// full but the last, which holds exactly its rows; SizeBytes is exactly
// 24 B per row plus the statics; every row replays as Interpret streams
// it; its SIGCAP02 encoding survives ReadCapture byte for byte and column
// for column; and FunctCounts equals the interpreted rows' tally (and
// FunctProfile for the whole run).
func TestRecordChunkBoundaries(t *testing.T) {
	ctx := context.Background()
	b, _ := bench.ByName("dijkstra")
	rc := icomp.MustNewRecoder(icomp.DefaultTopFuncts())
	events := func(rep func(Consumer) error) []Event {
		var evs []Event
		var ev Event
		if err := rep(blockFunc(func(blk *Block) {
			for i := range blk.Slot {
				blk.EventAt(i, &ev)
				evs = append(evs, ev)
			}
		})); err != nil {
			t.Fatal(err)
		}
		return evs
	}
	for _, limit := range []uint64{0, 1, BlockRows - 1, BlockRows, BlockRows + 1, 2 * BlockRows, b.MaxInsts} {
		t.Run(fmt.Sprint(limit), func(t *testing.T) {
			c, err := b.NewCPU()
			if err != nil {
				t.Fatal(err)
			}
			cp, err := RecordCPU(ctx, c, limit)
			if err != nil {
				t.Fatal(err)
			}
			cp.bench = b // name the rows so ReadCapture resolves them
			n := cp.Len()
			if limit < b.MaxInsts && uint64(n) != limit || limit == b.MaxInsts && !c.Done {
				t.Fatalf("recorded %d rows (halted %v) under limit %d", n, c.Done, limit)
			}
			if want := (n + BlockRows - 1) / BlockRows; len(cp.chunks) != want {
				t.Fatalf("%d rows in %d chunks, want %d", n, len(cp.chunks), want)
			}
			for i, ch := range cp.chunks {
				for _, col := range ch {
					if want := min(BlockRows, n-i*BlockRows); len(col) != want || cap(col) != want {
						t.Fatalf("chunk %d column of len %d cap %d, want %d rows exactly", i, len(col), cap(col), want)
					}
				}
			}
			if got, want := cp.SizeBytes(), 24*n+len(cp.statics)*staticSize; got != want {
				t.Errorf("SizeBytes %d, want %d", got, want)
			}
			if limit == b.MaxInsts {
				if perInst := float64(cp.SizeBytes()) / float64(n); perInst > MaxBytesPerInst {
					t.Errorf("%.1f B/instruction exceeds budget %d", perInst, MaxBytesPerInst)
				}
			}

			ref, _ := b.NewCPU()
			want := events(func(con Consumer) error {
				_, err := Interpret(ctx, ref, limit, nil, rc, con)
				return err
			})
			got := events(func(con Consumer) error { return cp.ReplayBlocks(ctx, rc, con) })
			if len(got) != n || !reflect.DeepEqual(got, want) {
				t.Fatalf("replay gives %d rows, Interpret %d, or they differ", len(got), len(want))
			}

			var first, second bytes.Buffer
			if _, err := cp.WriteTo2(&first); err != nil {
				t.Fatal(err)
			}
			read, err := ReadCapture(bytes.NewReader(first.Bytes()), int64(first.Len()))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := read.WriteTo2(&second); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("SIGCAP02 round trip changes the bytes: %d then %d", first.Len(), second.Len())
			}
			if !reflect.DeepEqual(columns(read), columns(cp)) || read.SizeBytes() != 24*n+len(read.statics)*staticSize {
				t.Fatalf("ReadCapture's columns or size differ from the recorded capture's")
			}

			tally := map[isa.Funct]uint64{}
			for i := range want {
				if in := want[i].Inst; in.Op == isa.OpSpecial {
					tally[in.Funct]++
				}
			}
			if limit == b.MaxInsts {
				profile, err := FunctProfile([]bench.Benchmark{b})
				if err != nil || !maps.Equal(profile, tally) {
					t.Fatalf("FunctProfile %v (%v), interpreted tally %v", profile, err, tally)
				}
			}
			if counts, err := cp.FunctCounts(); err != nil || !maps.Equal(counts, tally) {
				t.Fatalf("FunctCounts %v (%v), interpreted tally %v", counts, err, tally)
			}
		})
	}
}
