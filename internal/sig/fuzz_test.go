package sig

import "testing"

// Decompressors must never panic on arbitrary stored bytes and extension
// fields: they either reconstruct a word or return an error.
func FuzzDecompressExt3(f *testing.F) {
	f.Add([]byte{0x04}, uint8(0b111))
	f.Add([]byte{0x04, 0xf5}, uint8(0b110))
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5}, uint8(0b101))
	f.Fuzz(func(t *testing.T, stored []byte, ext uint8) {
		v, err := DecompressExt3(stored, Ext3(ext&7))
		if err != nil {
			return
		}
		// A successful decompression must re-compress to the same length
		// or shorter (our compression is maximal) and round-trip its value.
		re, e2 := CompressExt3(v)
		if len(re) > len(stored) {
			t.Fatalf("recompression grew: %d > %d", len(re), len(stored))
		}
		v2, err := DecompressExt3(re, e2)
		if err != nil || v2 != v {
			t.Fatalf("canonical round trip failed: %v %v", v2, err)
		}
	})
}

// FuzzDecompressExt2 mirrors FuzzDecompressExt3 for the 2-bit count scheme:
// arbitrary stored bytes either reconstruct a word or error, and canonical
// recompression never grows and always round-trips.
func FuzzDecompressExt2(f *testing.F) {
	f.Add([]byte{0x04}, uint8(3))
	f.Add([]byte{0x04, 0xf5}, uint8(2))
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 2, 3, 4}, uint8(0))
	f.Add([]byte{0x80, 0xff}, uint8(2))
	f.Fuzz(func(t *testing.T, stored []byte, cnt uint8) {
		e := Ext2(cnt & 3)
		// A well-formed (count, length) pair must never error.
		if len(stored) == e.SigByteCount() {
			if _, err := DecompressExt2(stored, e); err != nil {
				t.Fatalf("well-formed input rejected: %v", err)
			}
		}
		v, err := DecompressExt2(stored, e)
		if err != nil {
			return
		}
		re, e2 := CompressExt2(v)
		if len(re) > len(stored) {
			t.Fatalf("recompression grew: %d > %d", len(re), len(stored))
		}
		v2, err := DecompressExt2(re, e2)
		if err != nil || v2 != v {
			t.Fatalf("canonical round trip failed: %#x %v", v2, err)
		}
		if Ext2Of(v) != e2 {
			t.Fatalf("Ext2Of(%#x) = %d, CompressExt2 said %d", v, Ext2Of(v), e2)
		}
	})
}

// FuzzExtHalfword ties the halfword extension bit, the SigHalves count, and
// the general Partition{16,16} scheme together on arbitrary words.
func FuzzExtHalfword(f *testing.F) {
	f.Add(uint32(0))
	f.Add(uint32(0x7fff))
	f.Add(uint32(0x8000))
	f.Add(uint32(0xffff8000))
	f.Add(uint32(0xdeadbeef))
	f.Fuzz(func(t *testing.T, v uint32) {
		e := ExtHOf(v)
		if e.SigHalfCount() != SigHalves(v) {
			t.Fatalf("SigHalfCount %d != SigHalves %d for %#x", e.SigHalfCount(), SigHalves(v), v)
		}
		p := Partition{16, 16}
		if p.StoredSegments(v) != SigHalves(v) {
			t.Fatalf("Partition{16,16}.StoredSegments %d != SigHalves %d for %#x",
				p.StoredSegments(v), SigHalves(v), v)
		}
		if want := 16*SigHalves(v) + ExtHBits; StoredBitsH(v) != want {
			t.Fatalf("StoredBitsH(%#x) = %d, want %d", v, StoredBitsH(v), want)
		}
		segs, ext := p.Compress(v)
		v2, err := p.Decompress(segs, ext)
		if err != nil || v2 != v {
			t.Fatalf("halfword partition round trip: %#x -> %#x (%v)", v, v2, err)
		}
	})
}

// FuzzPartitionDecompress exercises the general partition scheme.
func FuzzPartitionDecompress(f *testing.F) {
	f.Add(uint32(0), uint32(0x1234), true, false, true)
	f.Add(uint32(0xffffffff), uint32(7), false, true, true)
	f.Fuzz(func(t *testing.T, s0, s1 uint32, e1, e2, e3 bool) {
		p := Partition{8, 8, 8, 8}
		ext := []bool{false, e1, e2, e3}
		var segs []uint32
		segs = append(segs, s0)
		need := 0
		for i := 1; i < 4; i++ {
			if !ext[i] {
				need++
			}
		}
		for len(segs) < 1+need {
			segs = append(segs, s1)
		}
		v, err := p.Decompress(segs, ext)
		if err != nil {
			return
		}
		// Round trip through the canonical compression.
		cs, ce := p.Compress(v)
		v2, err := p.Decompress(cs, ce)
		if err != nil || v2 != v {
			t.Fatalf("round trip: %#x vs %#x (%v)", v2, v, err)
		}
	})
}

// partitionEdgeValues are the words FuzzPartitionStoredBits and
// TestPartitionMatchesReference start from: the sign and width boundaries
// plus 0x7f000000, whose extension marking is not a suffix (the top byte is
// significant while the two below it are extensions).
var partitionEdgeValues = []uint32{0, 1, 0x7f, 0x80, 0x7fffffff, 0x80000000, 0xffffffff, 0x7f000000}

// partitionEdgeShapes are the partitions beyond CandidatePartitions that
// stress the mask arithmetic: one segment, a 31-bit upper segment, a 1-bit
// upper segment, and thirty-two 1-bit segments.
func partitionEdgeShapes() []Partition {
	ones := make(Partition, 32)
	for i := range ones {
		ones[i] = 1
	}
	return []Partition{{32}, {1, 31}, {31, 1}, ones}
}

// FuzzPartitionStoredBits differentially checks the EqBits-mask StoredBits,
// StoredSegments and Compress against the slice-based reference
// (partition_ref_test.go) on fuzzed partitions and words.
func FuzzPartitionStoredBits(f *testing.F) {
	shapes := partitionEdgeShapes()
	for _, p := range CandidatePartitions() {
		shapes = append(shapes, p)
	}
	for _, p := range shapes {
		widths := make([]byte, len(p))
		for i, w := range p {
			widths[i] = byte(w)
		}
		for _, v := range partitionEdgeValues {
			f.Add(widths, v)
		}
	}
	f.Fuzz(func(t *testing.T, widths []byte, v uint32) {
		p := make(Partition, len(widths))
		for i, w := range widths {
			p[i] = int(w)
		}
		if p.Validate() != nil {
			return
		}
		checkPartitionAgainstReference(t, p, v)
	})
}
