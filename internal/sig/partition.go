package sig

import "fmt"

// Partition generalizes the significance scheme to arbitrary segment
// widths — the paper's §2.1 future-work item ("one could consider
// non-power-of-two bit sequences and dividing words into sequences of
// different lengths, but this remains for future study").
//
// A Partition lists segment widths in bits, least significant first,
// summing to 32. The lowest segment is always stored; each higher segment
// carries one extension bit marking it as the sign extension of the
// segment below (all bits equal to that segment's top bit). The byte
// scheme is Partition{8, 8, 8, 8}; the halfword scheme is Partition{16, 16}.
type Partition []int

// Validate reports an error unless the widths are positive and sum to 32.
func (p Partition) Validate() error {
	if len(p) == 0 {
		return fmt.Errorf("sig: empty partition")
	}
	total := 0
	for _, w := range p {
		if w <= 0 || w > 32 {
			return fmt.Errorf("sig: invalid segment width %d", w)
		}
		total += w
	}
	if total != 32 {
		return fmt.Errorf("sig: partition widths sum to %d, want 32", total)
	}
	return nil
}

// ExtBits returns the per-word extension overhead: one bit per elidable
// segment.
func (p Partition) ExtBits() int { return len(p) - 1 }

// EqBits returns v's equal-adjacent-bits word: bit j is set iff bit j of v
// equals bit j+1. A run of v's bits is uniform exactly when the matching
// run of EqBits is all ones, which is the paper's extension test done with
// one XOR instead of per-segment compares. Bit 31 carries no information
// (there is no bit 32 to compare with) and no ExtMask covers it.
func EqBits(v uint32) uint32 { return ^(v ^ v>>1) }

// ExtMask returns the EqBits mask of the segment of width w starting at bit
// s (s >= 1): the segment is the sign extension of the bits below it, i.e.
// bits s-1 .. s+w-1 of v are all equal, iff EqBits(v)&m == m. The shift is
// done in 64 bits so a 31-bit segment is safe.
func ExtMask(s, w int) uint32 { return uint32((uint64(1)<<uint(w) - 1) << uint(s-1)) }

// StoredSegments returns how many segments of v must be stored (1..len(p)).
func (p Partition) StoredSegments(v uint32) int {
	eq := EqBits(v)
	n, s := 1, p[0]
	for _, w := range p[1:] {
		if m := ExtMask(s, w); eq&m != m {
			n++
		}
		s += w
	}
	return n
}

// StoredBits returns total held bits for v: stored segment bits plus the
// extension overhead.
func (p Partition) StoredBits(v uint32) int {
	eq := EqBits(v)
	bits, s := p[0], p[0]
	for _, w := range p[1:] {
		if m := ExtMask(s, w); eq&m != m {
			bits += w
		}
		s += w
	}
	return bits + p.ExtBits()
}

// Compress returns the stored segments (least significant first) and the
// extension marking.
func (p Partition) Compress(v uint32) (segs []uint32, ext []bool) {
	eq := EqBits(v)
	ext = make([]bool, len(p))
	s := 0
	for i, w := range p {
		if i > 0 {
			m := ExtMask(s, w)
			ext[i] = eq&m == m
		}
		if !ext[i] {
			segs = append(segs, v>>uint(s)&uint32(uint64(1)<<uint(w)-1))
		}
		s += w
	}
	return segs, ext
}

// Decompress reconstructs the word from stored segments and markings.
func (p Partition) Decompress(segs []uint32, ext []bool) (uint32, error) {
	if len(ext) != len(p) {
		return 0, fmt.Errorf("sig: marking length %d, want %d", len(ext), len(p))
	}
	var v uint32
	shift := 0
	next := 0
	var prev uint32
	var prevW int
	for i, w := range p {
		var seg uint32
		if i == 0 || !ext[i] {
			if next >= len(segs) {
				return 0, fmt.Errorf("sig: not enough stored segments")
			}
			seg = segs[next] & (uint32(1)<<uint(w) - 1)
			next++
		} else {
			if prev>>uint(prevW-1)&1 == 1 {
				seg = uint32(1)<<uint(w) - 1
			}
		}
		v |= seg << uint(shift)
		shift += w
		prev, prevW = seg, w
	}
	if next != len(segs) {
		return 0, fmt.Errorf("sig: %d unused stored segments", len(segs)-next)
	}
	return v, nil
}

// CandidatePartitions returns the partition designs studied by the
// future-work ablation: the paper's byte and halfword schemes plus
// non-uniform and non-power-of-two splits.
func CandidatePartitions() map[string]Partition {
	return map[string]Partition{
		"8-8-8-8 (paper byte)": {8, 8, 8, 8},
		"16-16 (paper half)":   {16, 16},
		"8-8-16":               {8, 8, 16},
		"8-24":                 {8, 24},
		"12-20":                {12, 20},
		"6-6-6-14":             {6, 6, 6, 14},
		"4-4-8-16":             {4, 4, 8, 16},
		"10-10-12":             {10, 10, 12},
	}
}
