package sig

// The reference partition arithmetic: the slice-based segment split and
// per-segment sign-extension compare that StoredBits, StoredSegments and
// Compress used before they moved to the EqBits mask test. It lives in a
// test file as the oracle those functions are pinned to
// (TestPartitionMatchesReference, FuzzPartitionStoredBits).

// segments splits v by the partition, least significant first.
func (p Partition) segments(v uint32) []uint32 {
	segs := make([]uint32, len(p))
	shift := 0
	for i, w := range p {
		segs[i] = (v >> uint(shift)) & (uint32(1)<<uint(w) - 1)
		shift += w
	}
	return segs
}

// extOf returns the per-segment extension marking (index 1..len-1): true
// means the segment equals the sign extension of the segment below it.
func (p Partition) extOf(v uint32) []bool {
	segs := p.segments(v)
	ext := make([]bool, len(p))
	for i := 1; i < len(p); i++ {
		below := segs[i-1]
		signBit := below >> uint(p[i-1]-1) & 1
		var fill uint32
		if signBit == 1 {
			fill = uint32(1)<<uint(p[i]) - 1
		}
		ext[i] = segs[i] == fill
	}
	return ext
}

// refStoredSegments is the reference StoredSegments.
func (p Partition) refStoredSegments(v uint32) int {
	ext := p.extOf(v)
	n := 1
	for i := 1; i < len(p); i++ {
		if !ext[i] {
			n++
		}
	}
	return n
}

// refStoredBits is the reference StoredBits.
func (p Partition) refStoredBits(v uint32) int {
	ext := p.extOf(v)
	bits := p[0]
	for i := 1; i < len(p); i++ {
		if !ext[i] {
			bits += p[i]
		}
	}
	return bits + p.ExtBits()
}

// refCompress is the reference Compress.
func (p Partition) refCompress(v uint32) (segs []uint32, ext []bool) {
	all := p.segments(v)
	ext = p.extOf(v)
	segs = append(segs, all[0])
	for i := 1; i < len(p); i++ {
		if !ext[i] {
			segs = append(segs, all[i])
		}
	}
	return segs, ext
}
