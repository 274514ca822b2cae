package activity

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/sig"
	"repro/internal/trace"
)

// blockProbe adapts a function to trace.Consumer.
type blockProbe func(*trace.Block)

func (f blockProbe) ConsumeBlock(b *trace.Block) { f(b) }

// TestOperandCollectorsAllocFree guards the operand-value kernels against
// per-value allocation: ConsumeBlock of PatternStats, PartitionStats and
// Width64Stats allocates nothing on a block of a captured benchmark, and
// neither does sig.Partition.StoredBits.
func TestOperandCollectorsAllocFree(t *testing.T) {
	b, ok := bench.ByName("g711dec")
	if !ok {
		t.Fatal("unknown benchmark g711dec")
	}
	cp, err := trace.CaptureRun(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	kernels := map[string]trace.Consumer{
		"patterns":   NewPatternStats(),
		"partitions": NewPartitionStats(),
		"width64":    NewWidth64Stats(),
	}
	probed := false
	probe := blockProbe(func(blk *trace.Block) {
		if probed || blk.Len() < trace.BlockRows {
			return
		}
		probed = true
		for name, k := range kernels {
			if a := testing.AllocsPerRun(20, func() { k.ConsumeBlock(blk) }); a != 0 {
				t.Errorf("%s: ConsumeBlock allocates %.1f per %d-row block", name, a, blk.Len())
			}
		}
	})
	if err := cp.ReplayBlocks(context.Background(), rc, probe); err != nil {
		t.Fatal(err)
	}
	if !probed {
		t.Fatal("no full block to probe")
	}
	for name, p := range sig.CandidatePartitions() {
		v := uint32(0x7f000000)
		if a := testing.AllocsPerRun(100, func() { v += uint32(p.StoredBits(v)) }); a != 0 {
			t.Errorf("%s: StoredBits allocates %.1f per call", name, a)
		}
	}
}

// TestWidth64Identity checks the identity Width64Stats rests on: a value's
// 64-bit stored bits, less the 64-bit extension overhead, equal its 32-bit
// stored bits less the 32-bit overhead. Every high halfword is paired with
// low halfwords covering the byte-0/byte-1 sign boundaries plus a
// pseudo-random spread.
func TestWidth64Identity(t *testing.T) {
	var lows []uint32
	edges := []uint32{0x00, 0x01, 0x7f, 0x80, 0xff}
	for _, b1 := range edges {
		for _, b0 := range edges {
			lows = append(lows, b1<<8|b0)
		}
	}
	x := uint32(0x2545f491)
	for len(lows) < 64 {
		x = x*1664525 + 1013904223
		lows = append(lows, x>>16)
	}
	for hi := uint32(0); hi < 1<<16; hi++ {
		for _, lo := range lows {
			v := hi<<16 | lo
			got := sig.StoredBits64(sig.Extend64(v)) - sig.Ext64Bits
			want := sig.StoredBits3(v) - sig.Ext3Bits
			if got != want {
				t.Fatalf("%#08x: 64-bit data bits %d, 32-bit %d", v, got, want)
			}
		}
	}
}

// TestPatternStateRoundTrip checks that State carries exactly the seen
// patterns and that AddState of it reproduces the tally's rows.
func TestPatternStateRoundTrip(t *testing.T) {
	p := NewPatternStats()
	feedOperands(t, mergeOperands, p)
	st := p.State()
	var sum uint64
	for pat, n := range st.Counts {
		if n == 0 {
			t.Errorf("State carries unseen pattern %q", pat)
		}
		sum += n
	}
	if sum != st.Total || st.Total != p.Total() {
		t.Fatalf("State counts sum %d, total %d, tally %d", sum, st.Total, p.Total())
	}
	q := NewPatternStats()
	if err := q.AddState(st); err != nil {
		t.Fatal(err)
	}
	if q.TwoBitCoverage() != p.TwoBitCoverage() || len(q.Rows()) != len(p.Rows()) {
		t.Fatal("AddState of State does not reproduce the tally")
	}
	for i, r := range p.Rows() {
		if q.Rows()[i] != r {
			t.Fatalf("row %d: %+v, want %+v", i, q.Rows()[i], r)
		}
	}
}

// TestPatternAddStateValidation checks that AddState rejects a transported
// tally Table 1 could not have produced, and leaves the collector unchanged
// when it does.
func TestPatternAddStateValidation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		st      PatternState
		wantErr string
	}{
		{"empty", PatternState{}, ""},
		{"valid", PatternState{Counts: map[string]uint64{"eees": 7, "ssss": 3}, Total: 10}, ""},
		{"zero count", PatternState{Counts: map[string]uint64{"eess": 0}, Total: 0}, ""},
		{"unknown key", PatternState{Counts: map[string]uint64{"ssss": 10, "xxxx": 10}, Total: 20}, `unknown pattern "xxxx"`},
		{"low byte extension", PatternState{Counts: map[string]uint64{"eeee": 1}, Total: 1}, "unknown pattern"},
		{"total above sum", PatternState{Counts: map[string]uint64{"ssss": 10}, Total: 11}, "sum to 10"},
		{"total below sum", PatternState{Counts: map[string]uint64{"ssss": 10, "eees": 1}, Total: 10}, "sum to 11"},
		{"total without counts", PatternState{Total: 5}, "sum to 0"},
	} {
		p := NewPatternStats()
		feedOperands(t, mergeOperands, p)
		before := p.State()
		err := p.AddState(tc.st)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
		case tc.wantErr != "" && p.Total() != before.Total:
			t.Errorf("%s: rejected state still changed the total to %d", tc.name, p.Total())
		case tc.wantErr == "" && p.Total() != before.Total+tc.st.Total:
			t.Errorf("%s: total %d, want %d", tc.name, p.Total(), before.Total+tc.st.Total)
		}
	}
}
