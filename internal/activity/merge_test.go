package activity

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/trace"
)

// mergeOperands is the merge fixture: a mixed bag of operand value pairs,
// split in two so "one collector fed everything" can be compared against
// "two collectors fed halves, then merged".
var mergeOperands = [][2]uint32{
	{3, 4},
	{0x12345678, 1},
	{0, 0xffffffff},
	{0x8000, 0x7fff},
	{0x00ff00ff, 0x12000000},
	{42, 0xdeadbeef},
}

// splitEvents is mergeOperands as addu events, for the reference oracles.
func splitEvents() (all, first, second []trace.Event) {
	for _, v := range mergeOperands {
		all = append(all, aluEvent(0x400000, v[0], v[1]))
	}
	return all, all[:3], all[3:]
}

// feedOperands replays one addu per operand pair through consumers' block
// kernels, by way of a capture of those instructions.
func feedOperands(t *testing.T, pairs [][2]uint32, consumers ...trace.Consumer) {
	t.Helper()
	cp := trace.NewCapture(bench.Benchmark{})
	for i, v := range pairs {
		cp.Record(aluExec(0x400000+4*uint32(i), v[0], v[1]))
	}
	cp.Finalize()
	if err := cp.ReplayBlocks(context.Background(), rc, consumers...); err != nil {
		t.Fatal(err)
	}
}

// feedSplit feeds mergeOperands whole to whole and in halves to a and b.
func feedSplit(t *testing.T, whole, a, b trace.Consumer) {
	feedOperands(t, mergeOperands, whole)
	feedOperands(t, mergeOperands[:3], a)
	feedOperands(t, mergeOperands[3:], b)
}

func TestPatternStatsMerge(t *testing.T) {
	whole, a, b := NewPatternStats(), NewPatternStats(), NewPatternStats()
	feedSplit(t, whole, a, b)
	a.Merge(b)
	if a.Total() != whole.Total() {
		t.Fatalf("merged total %d, want %d", a.Total(), whole.Total())
	}
	if !reflect.DeepEqual(a.Rows(), whole.Rows()) {
		t.Fatal("merged pattern rows differ from single-collector rows")
	}
	if a.TwoBitCoverage() != whole.TwoBitCoverage() {
		t.Fatal("merged two-bit coverage differs")
	}
}

func TestFetchStatsMerge(t *testing.T) {
	all, first, second := splitEvents()
	whole, a, b := &FetchStats{}, &FetchStats{}, &FetchStats{}
	for _, e := range all {
		whole.Consume(e)
	}
	for _, e := range first {
		a.Consume(e)
	}
	for _, e := range second {
		b.Consume(e)
	}
	a.Merge(b)
	if !reflect.DeepEqual(a, whole) {
		t.Fatalf("merged fetch stats %+v, want %+v", a, whole)
	}
}

func TestPartitionStatsMerge(t *testing.T) {
	whole, a, b := NewPartitionStats(), NewPartitionStats(), NewPartitionStats()
	feedSplit(t, whole, a, b)
	a.Merge(b)
	if a.Values() != whole.Values() {
		t.Fatalf("merged values %d, want %d", a.Values(), whole.Values())
	}
	if !reflect.DeepEqual(a.Rows(), whole.Rows()) {
		t.Fatal("merged partition rows differ from single-collector rows")
	}
}

func TestWidth64StatsMerge(t *testing.T) {
	whole, a, b := NewWidth64Stats(), NewWidth64Stats(), NewWidth64Stats()
	feedSplit(t, whole, a, b)
	a.Merge(b)
	if a.Saving32() != whole.Saving32() || a.Saving64() != whole.Saving64() {
		t.Fatalf("merged savings %.4f/%.4f, want %.4f/%.4f",
			a.Saving32(), a.Saving64(), whole.Saving32(), whole.Saving64())
	}
}
