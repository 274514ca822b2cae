package sig

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestPartitionValidate(t *testing.T) {
	good := []Partition{{8, 8, 8, 8}, {16, 16}, {32}, {1, 31}, {6, 6, 6, 14}}
	for _, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("%v: %v", p, err)
		}
	}
	bad := []Partition{{}, {8, 8}, {0, 32}, {-4, 36}, {33}, {16, 17}}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("%v: expected error", p)
		}
	}
}

func TestPartitionByteSchemeAgreesWithExt3(t *testing.T) {
	p := Partition{8, 8, 8, 8}
	f := func(v uint32) bool {
		return p.StoredSegments(v) == Ext3Of(v).SigByteCount() &&
			p.StoredBits(v) == StoredBits3(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionHalfSchemeAgreesWithExtH(t *testing.T) {
	p := Partition{16, 16}
	f := func(v uint32) bool {
		return p.StoredSegments(v) == SigHalves(v) &&
			p.StoredBits(v) == StoredBitsH(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionRoundTrip(t *testing.T) {
	for name, p := range CandidatePartitions() {
		p := p
		f := func(v uint32) bool {
			segs, ext := p.Compress(v)
			got, err := p.Decompress(segs, ext)
			return err == nil && got == v
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestPartitionNonUniformExamples(t *testing.T) {
	// 8-24: value 4 stores only the low byte.
	p := Partition{8, 24}
	if got := p.StoredBits(4); got != 8+1 {
		t.Errorf("8-24 of 4: %d bits", got)
	}
	// 8-24: value 0x1234 must store both segments: 32+1.
	if got := p.StoredBits(0x1234); got != 32+1 {
		t.Errorf("8-24 of 0x1234: %d bits", got)
	}
	// 6-6-6-14: value 4 (fits in 6 bits, positive) stores one segment.
	p = Partition{6, 6, 6, 14}
	if got := p.StoredBits(4); got != 6+3 {
		t.Errorf("6-6-6-14 of 4: %d bits", got)
	}
	// Negative small value: -3 = 0xfffffffd; low 6 bits 0b111101, sign 1,
	// all upper segments are ones -> extensions.
	if got := p.StoredBits(0xfffffffd); got != 6+3 {
		t.Errorf("6-6-6-14 of -3: %d bits", got)
	}
}

func TestPartitionDecompressErrors(t *testing.T) {
	p := Partition{8, 8, 8, 8}
	if _, err := p.Decompress([]uint32{1}, []bool{false, true}); err == nil {
		t.Error("marking length mismatch should error")
	}
	if _, err := p.Decompress([]uint32{1}, []bool{false, false, true, true}); err == nil {
		t.Error("missing segments should error")
	}
	if _, err := p.Decompress([]uint32{1, 2, 3}, []bool{false, true, true, true}); err == nil {
		t.Error("extra segments should error")
	}
}

func TestCandidatePartitionsValid(t *testing.T) {
	cands := CandidatePartitions()
	if len(cands) < 6 {
		t.Fatalf("candidates: %d", len(cands))
	}
	for name, p := range cands {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestPartitionStoredBitsNeverExceedsFullWord(t *testing.T) {
	for name, p := range CandidatePartitions() {
		p := p
		f := func(v uint32) bool {
			b := p.StoredBits(v)
			return b >= p[0]+p.ExtBits() && b <= 32+p.ExtBits()
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// checkPartitionAgainstReference fails t unless the mask-based partition
// arithmetic agrees with the slice-based reference on v.
func checkPartitionAgainstReference(t *testing.T, p Partition, v uint32) {
	t.Helper()
	if got, want := p.StoredBits(v), p.refStoredBits(v); got != want {
		t.Fatalf("%v StoredBits(%#08x) = %d, reference %d", p, v, got, want)
	}
	if got, want := p.StoredSegments(v), p.refStoredSegments(v); got != want {
		t.Fatalf("%v StoredSegments(%#08x) = %d, reference %d", p, v, got, want)
	}
	segs, ext := p.Compress(v)
	wantSegs, wantExt := p.refCompress(v)
	if !reflect.DeepEqual(segs, wantSegs) || !reflect.DeepEqual(ext, wantExt) {
		t.Fatalf("%v Compress(%#08x) = %#x %v, reference %#x %v", p, v, segs, ext, wantSegs, wantExt)
	}
}

// TestPartitionMatchesReference pins StoredBits, StoredSegments and
// Compress to the slice-based reference over every candidate and edge
// partition, on the edge words and a deterministic pseudo-random sweep.
func TestPartitionMatchesReference(t *testing.T) {
	shapes := partitionEdgeShapes()
	for _, p := range CandidatePartitions() {
		shapes = append(shapes, p)
	}
	for _, p := range shapes {
		for _, v := range partitionEdgeValues {
			checkPartitionAgainstReference(t, p, v)
		}
		x := uint32(0x2545f491)
		for i := 0; i < 1<<14; i++ {
			x = x*1664525 + 1013904223
			// Vary how many top bits are uniform so every marking shows up.
			checkPartitionAgainstReference(t, p, uint32(int32(x)>>(x%32)))
		}
	}
}
