package pipeline

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/icomp"
	"repro/internal/trace"
)

// batchTestBenches are small suite members covering loads, stores, branches,
// register jumps, and mult/div — every scheduling path in the engine.
var batchTestBenches = []string{"dijkstra", "g711dec", "rawdaudio"}

func captureBench(t *testing.T, name string) *trace.Capture {
	t.Helper()
	b, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	cp, err := trace.CaptureRun(context.Background(), b)
	if err != nil {
		t.Fatalf("capture %s: %v", name, err)
	}
	return cp
}

// batchTestModels builds every model variant twice (one for each replay
// path): the seven paper models, the two ablation alternates (which take the
// generic fallback), and the predicted variants (which exercise the
// predictor state machine on the fast path).
func batchTestModels() map[string]func() *Model {
	ctors := map[string]func() *Model{
		NameCompressedOccupancy: NewParallelCompressedOccupancy,
		NameSkewedLateBranch:    NewParallelSkewedLateBranch,
	}
	for _, name := range AllNames() {
		name := name
		ctors[name] = func() *Model { return New(name) }
		ctors[name+"+bp"] = func() *Model { return NewPredicted(name) }
	}
	return ctors
}

// TestConsumeBlockMatchesConsume pins the batch kernels to the scalar
// reference: for every model variant and benchmark, replaying through
// ConsumeBlock must produce exactly the same Result (cycles, instruction
// count, and every stall bucket) as the event-at-a-time Consume path.
func TestConsumeBlockMatchesConsume(t *testing.T) {
	ctx := context.Background()
	rc := icomp.MustNewRecoder(icomp.DefaultTopFuncts())
	ctors := batchTestModels()
	for _, bn := range batchTestBenches {
		cp := captureBench(t, bn)
		for label, ctor := range ctors {
			scalar, batch := ctor(), ctor()
			if err := cp.ReplayOn(ctx, nil, rc, scalar); err != nil {
				t.Fatalf("%s/%s scalar replay: %v", bn, label, err)
			}
			if err := cp.ReplayBlocks(ctx, rc, batch); err != nil {
				t.Fatalf("%s/%s batch replay: %v", bn, label, err)
			}
			want, got := scalar.Result(), batch.Result()
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s/%s: batch result diverges\nscalar: %+v\nbatch:  %+v", bn, label, want, got)
			}
			if scalar.PredictorAccuracy() != batch.PredictorAccuracy() {
				t.Errorf("%s/%s: predictor accuracy diverges: scalar %v batch %v",
					bn, label, scalar.PredictorAccuracy(), batch.PredictorAccuracy())
			}
		}
	}
}

// TestConsumeBlockSplitBlocks feeds the same trace through ConsumeBlock in
// deliberately tiny, unevenly sized blocks to verify the scheduler state
// carries correctly across block boundaries (NextPC of a block's last row,
// prevEnter/no-passing coupling, fetch blocking).
func TestConsumeBlockSplitBlocks(t *testing.T) {
	ctx := context.Background()
	rc := icomp.MustNewRecoder(icomp.DefaultTopFuncts())
	cp := captureBench(t, "dijkstra")

	scalar := NewByteSerial()
	if err := cp.ReplayOn(ctx, nil, rc, scalar); err != nil {
		t.Fatalf("scalar replay: %v", err)
	}

	// Recover the raw blocks via a capturing BatchConsumer, then re-feed
	// them in odd-sized sub-blocks.
	batch := NewByteSerial()
	var rows int
	err := cp.ReplayBlocks(ctx, rc, blockFunc(func(b *trace.Block) {
		n := b.Len()
		misses := b.Misses
		for lo := 0; lo < n; {
			hi := lo + 1 + (lo % 7)
			if hi > n {
				hi = n
			}
			k := 0
			for k < len(misses) && int(misses[k].Row) < b.Start+hi {
				k++
			}
			sub := trace.Block{
				Misses:    misses[:k],
				Start:     b.Start + lo,
				Slot:      b.Slot[lo:hi],
				PC:        b.PC[lo:hi],
				SrcA:      b.SrcA[lo:hi],
				SrcB:      b.SrcB[lo:hi],
				Result:    b.Result[lo:hi],
				Sig:       b.Sig[lo:hi],
				EndNextPC: b.EndNextPC,
				Statics:   b.Statics,
				IFB:       b.IFB,
			}
			if hi < n {
				sub.EndNextPC = b.PC[hi]
			}
			misses = misses[k:]
			batch.ConsumeBlock(&sub)
			rows += hi - lo
			lo = hi
		}
	}))
	if err != nil {
		t.Fatalf("batch replay: %v", err)
	}
	if rows != cp.Len() {
		t.Fatalf("sub-blocks covered %d rows, capture has %d", rows, cp.Len())
	}
	if want, got := scalar.Result(), batch.Result(); !reflect.DeepEqual(want, got) {
		t.Errorf("sub-block batch result diverges\nscalar: %+v\nbatch:  %+v", want, got)
	}
}

// blockFunc adapts a function to trace.BatchConsumer for tests.
type blockFunc func(*trace.Block)

func (f blockFunc) Consume(trace.Event)         { panic("scalar path not expected") }
func (f blockFunc) ConsumeBlock(b *trace.Block) { f(b) }
