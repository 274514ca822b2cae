package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// decodeCap2FrameRef is the straightforward SIGCAP02 frame decoder: one
// varint at a time through a cursor closure, each predictor applied as its
// value is read. It is the reference decodeCap2Frame must agree with
// (FuzzDecodeCap2Frame): the same accepted inputs, the same columns.
func decodeCap2FrameRef(payload []byte, fr cap2Frame, nStatics uint64,
	slot, pc, srcA, srcB, result, sig []uint32, sc *cap2Scratch) error {
	corrupt := func(format string, args ...any) error {
		return &CorruptError{Format: cap2Magic, Reason: fmt.Sprintf(format, args...)}
	}
	if crc32.ChecksumIEEE(payload) != fr.crc {
		return corrupt("frame at offset %d fails CRC", fr.off)
	}
	n := len(slot)
	bm := (n + 7) / 8
	if len(payload) < bm {
		return corrupt("frame at offset %d truncated", fr.off)
	}
	taken := payload[:bm]
	p := payload[bm:]
	next := func() (uint64, error) {
		v, sz := binary.Uvarint(p)
		if sz <= 0 {
			return 0, corrupt("frame at offset %d truncated", fr.off)
		}
		p = p[sz:]
		return v, nil
	}
	for i := 0; i < n; i++ {
		s, err := next()
		if err != nil {
			return err
		}
		if s >= nStatics {
			return corrupt("frame row %d references slot %d of %d", i, s, nStatics)
		}
		sw := uint32(s)
		if taken[i>>3]&(1<<(i&7)) != 0 {
			sw |= TakenBit
		}
		slot[i] = sw
	}
	var prevPC uint32
	for i := range pc {
		d, err := next()
		if err != nil {
			return err
		}
		prevPC += unzigzag(d)
		pc[i] = prevPC
	}
	if n > 0 && pc[0] != fr.firstPC {
		return corrupt("frame at offset %d firstPC %#x disagrees with index %#x", fr.off, pc[0], fr.firstPC)
	}
	for ci, col := range [][]uint32{srcA, srcB, result} {
		prev := sc.prev[ci]
		clear(prev)
		for i := range col {
			d, err := next()
			if err != nil {
				return err
			}
			s := slot[i] & SlotMask
			prev[s] += unzigzag(d)
			col[i] = prev[s]
		}
	}
	prev := sc.prev[3]
	clear(prev)
	for i := range sig {
		d, err := next()
		if err != nil {
			return err
		}
		s := slot[i] & SlotMask
		prev[s] ^= uint32(d)
		sig[i] = prev[s]
	}
	if len(p) != 0 {
		return corrupt("frame at offset %d carries %d trailing bytes", fr.off, len(p))
	}
	return nil
}
