package trace

// SIGCAP02: the mmap-friendly frame-indexed persistent form of a Capture.
//
// SIGCAP01 (capfile.go) is a single delta/varint stream: compact, but the
// per-slot predictors thread state through every row, so nothing replays
// until the whole file has been decoded back into resident columns. SIGCAP02
// keeps the same column codec but chops the trace into independently
// decodable frames of FrameRows rows: every predictor (the PC delta chain
// and the per-slot srcA/srcB/result/sig chains) resets to zero at each frame
// boundary, so any frame decodes from its own bytes alone — the "seed state"
// a frame needs is the constant zero state, at the cost of one absolute
// (rather than delta) varint per live slot per frame, well under the
// CapFileMaxBytesPerInst budget.
//
// Layout (integers little-endian, varints as in SIGCAP01):
//
//	header   magic "SIGCAP02"
//	         name      uvarint length + benchmark name bytes
//	         statics   uvarint count, then one raw u32 word per slot
//	         insts     uvarint row count
//	         lastNext  u32 NextPC of the final instruction
//	         crc       u32 IEEE CRC-32 of every preceding header byte
//	frames   ceil(insts/FrameRows) frames, contiguous, each:
//	         taken     ceil(rows/8) bytes, bit i = branch outcome
//	         slot      rows × uvarint statics index
//	         pc        rows × svarint delta (predictor reset per frame)
//	         srcA/B    rows × svarint per-slot delta (reset per frame)
//	         result    rows × svarint per-slot delta (reset per frame)
//	         sig       rows × uvarint per-slot XOR (reset per frame)
//	footer   one 20-byte entry per frame:
//	         off u64 · len u32 · crc u32 (IEEE, of the frame bytes) ·
//	         firstPC u32 (PC of the frame's first row — frame f's last
//	         row takes its NextPC from frame f+1's firstPC, so no frame
//	         needs its successor decoded)
//	tail     footerCRC u32 · footerOff u64 · magic "SIGCAP02"
//
// A reader validates the file from the tail inward (trailing magic →
// footer index → header) without touching a single frame, which is what
// makes the mmap tier's warm-start lazy: OpenMappedCapture (stream.go)
// costs the index and statics table only; frames decode one at a time,
// CRC-checked, as replay consumes them.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/bench"
	"repro/internal/isa"
)

const cap2Magic = "SIGCAP02"

// FrameRows is the SIGCAP02 frame granule. It deliberately equals BlockRows:
// one decoded frame feeds consumers as exactly one block, so streaming
// replay fans out the same block boundaries as in-memory replay.
const FrameRows = BlockRows

const (
	cap2FrameMeta = 20 // footer entry: off u64 + len u32 + crc u32 + firstPC u32
	cap2TailLen   = 20 // footerCRC u32 + footerOff u64 + trailing magic
)

// cap2MinRowBytes is the smallest possible encoding of one row (six
// one-byte varints), the lower bound used to reject row counts that cannot
// fit the input before any column is allocated.
const cap2MinRowBytes = 6

// cap2Frame is one parsed footer entry.
type cap2Frame struct {
	off     int64  // file offset of the frame's first byte
	len     uint32 // frame length in bytes
	crc     uint32 // IEEE CRC-32 of the frame bytes
	firstPC uint32 // PC of the frame's first row
}

// cap2Index is everything a SIGCAP02 file declares outside its frames: the
// parsed header plus the footer index. It is the whole resident cost of the
// mapped tier — O(statics + frames), not O(rows).
type cap2Index struct {
	b          bench.Benchmark
	statics    []Static
	rows       int
	lastNextPC uint32
	frames     []cap2Frame
	size       int64
}

// frameSpan returns the global row range [lo, hi) frame f covers.
func (ix *cap2Index) frameSpan(f int) (lo, hi int) {
	lo = f * FrameRows
	hi = lo + FrameRows
	if hi > ix.rows {
		hi = ix.rows
	}
	return lo, hi
}

// frameEndNextPC returns the NextPC of frame f's final row: the next
// frame's firstPC, or the trace's lastNextPC for the final frame.
func (ix *cap2Index) frameEndNextPC(f int) uint32 {
	if f+1 < len(ix.frames) {
		return ix.frames[f+1].firstPC
	}
	return ix.lastNextPC
}

// indexSizeBytes estimates the index's resident footprint: statics table
// (struct + raw→slot map entry, as staticSize) plus the footer entries.
func (ix *cap2Index) indexSizeBytes() int {
	return len(ix.statics)*staticSize + len(ix.frames)*cap2FrameMeta
}

// WriteTo2 serializes the capture as SIGCAP02. Like WriteTo, the capture
// must be complete; concurrent replays are fine, concurrent recording is
// not. Returns the bytes written.
func (cp *Capture) WriteTo2(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	var scratch [binary.MaxVarintLen64]byte
	var total int64

	hcrc := crc32.NewIEEE()
	hdr := func(p []byte) {
		bw.Write(p)
		hcrc.Write(p)
		total += int64(len(p))
	}
	hdr([]byte(cap2Magic))
	n := binary.PutUvarint(scratch[:], uint64(len(cp.bench.Name)))
	hdr(scratch[:n])
	hdr([]byte(cp.bench.Name))
	n = binary.PutUvarint(scratch[:], uint64(len(cp.statics)))
	hdr(scratch[:n])
	for i := range cp.statics {
		binary.LittleEndian.PutUint32(scratch[:4], cp.statics[i].Inst.Raw)
		hdr(scratch[:4])
	}
	rows := len(cp.slot)
	n = binary.PutUvarint(scratch[:], uint64(rows))
	hdr(scratch[:n])
	binary.LittleEndian.PutUint32(scratch[:4], cp.lastNextPC)
	hdr(scratch[:4])
	binary.LittleEndian.PutUint32(scratch[:4], hcrc.Sum32())
	bw.Write(scratch[:4])
	total += 4

	nFrames := (rows + FrameRows - 1) / FrameRows
	footer := make([]byte, 0, nFrames*cap2FrameMeta)
	var fbuf bytes.Buffer
	sc := newCap2Scratch(len(cp.statics))
	for f := 0; f < nFrames; f++ {
		lo, hi := f*FrameRows, (f+1)*FrameRows
		if hi > rows {
			hi = rows
		}
		fbuf.Reset()
		cp.encodeFrame(&fbuf, lo, hi, sc)
		payload := fbuf.Bytes()
		var meta [cap2FrameMeta]byte
		binary.LittleEndian.PutUint64(meta[0:8], uint64(total))
		binary.LittleEndian.PutUint32(meta[8:12], uint32(len(payload)))
		binary.LittleEndian.PutUint32(meta[12:16], crc32.ChecksumIEEE(payload))
		binary.LittleEndian.PutUint32(meta[16:20], cp.pc[lo])
		footer = append(footer, meta[:]...)
		bw.Write(payload)
		total += int64(len(payload))
	}

	footerOff := total
	bw.Write(footer)
	total += int64(len(footer))
	var tail [cap2TailLen]byte
	binary.LittleEndian.PutUint32(tail[0:4], crc32.ChecksumIEEE(footer))
	binary.LittleEndian.PutUint64(tail[4:12], uint64(footerOff))
	copy(tail[12:20], cap2Magic)
	bw.Write(tail[:])
	total += cap2TailLen

	if err := bw.Flush(); err != nil {
		return total, err
	}
	return total, nil
}

// encodeFrame appends the self-contained encoding of rows [lo, hi) to buf.
// All predictors start from zero: the first occurrence of a slot in the
// frame pays an absolute varint instead of a delta.
func (cp *Capture) encodeFrame(buf *bytes.Buffer, lo, hi int, sc *cap2Scratch) {
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		buf.Write(scratch[:n])
	}
	n := hi - lo
	taken := sc.taken[:(n+7)/8]
	clear(taken)
	for i, sw := range cp.slot[lo:hi] {
		if sw&TakenBit != 0 {
			taken[i>>3] |= 1 << (i & 7)
		}
	}
	buf.Write(taken)
	for _, sw := range cp.slot[lo:hi] {
		putUvarint(uint64(sw & SlotMask))
	}
	var prevPC uint32
	for _, pc := range cp.pc[lo:hi] {
		putUvarint(zigzag(int32(pc - prevPC)))
		prevPC = pc
	}
	for ci, col := range [][]uint32{cp.srcA, cp.srcB, cp.result} {
		prev := sc.prev[ci]
		clear(prev)
		for i := lo; i < hi; i++ {
			s := cp.slot[i] & SlotMask
			putUvarint(zigzag(int32(col[i] - prev[s])))
			prev[s] = col[i]
		}
	}
	prev := sc.prev[3]
	clear(prev)
	for i := lo; i < hi; i++ {
		s := cp.slot[i] & SlotMask
		putUvarint(uint64(cp.sig[i] ^ prev[s]))
		prev[s] = cp.sig[i]
	}
}

// cap2Scratch is the per-slot predictor state reused across frame
// encodes/decodes: four prev arrays (srcA, srcB, result, sig) plus the
// taken-bitmap staging buffer. Frame independence means this is cleared,
// not carried, at every frame boundary.
type cap2Scratch struct {
	prev  [4][]uint32
	taken []byte
}

func newCap2Scratch(nStatics int) *cap2Scratch {
	sc := &cap2Scratch{taken: make([]byte, (FrameRows+7)/8)}
	for i := range sc.prev {
		sc.prev[i] = make([]uint32, nStatics)
	}
	return sc
}

// decodeCap2Frame decodes one frame payload into the caller's column
// slices (each len == the frame's row count), verifying the footer CRC and
// firstPC first. sc provides the per-slot predictor scratch; it is cleared
// here, never carried between frames. Returns a *CorruptError on any
// structural violation — decode never panics on arbitrary bytes.
func decodeCap2Frame(payload []byte, fr cap2Frame, nStatics uint64,
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

// openCap2Index validates a SIGCAP02 file from the tail inward and returns
// its index without decoding any frame: trailing magic → footer (CRC,
// contiguity, offsets in bounds) → header (CRC, bench known, statics and
// row counts sized against the actual input before any allocation). This is
// the whole cost of a lazy warm-start.
func openCap2Index(ra io.ReaderAt, size int64) (*cap2Index, error) {
	corrupt := func(format string, args ...any) error {
		return &CorruptError{Format: cap2Magic, Reason: fmt.Sprintf(format, args...)}
	}
	minHeader := int64(len(cap2Magic)) + 1 + 1 + 1 + 4 + 4
	if size < minHeader+cap2TailLen {
		return nil, corrupt("file truncated (%d bytes)", size)
	}
	var tail [cap2TailLen]byte
	if _, err := ra.ReadAt(tail[:], size-cap2TailLen); err != nil {
		return nil, fmt.Errorf("trace: reading capture tail: %w", err)
	}
	if string(tail[12:20]) != cap2Magic {
		return nil, corrupt("bad trailing magic %q", tail[12:20])
	}
	footerCRC := binary.LittleEndian.Uint32(tail[0:4])
	footerOff := int64(binary.LittleEndian.Uint64(tail[4:12]))
	if footerOff < minHeader || footerOff > size-cap2TailLen {
		return nil, corrupt("footer offset %d outside file of %d bytes", footerOff, size)
	}
	footerLen := size - cap2TailLen - footerOff
	if footerLen%cap2FrameMeta != 0 {
		return nil, corrupt("footer length %d not a multiple of %d", footerLen, cap2FrameMeta)
	}
	footer := make([]byte, footerLen)
	if _, err := ra.ReadAt(footer, footerOff); err != nil {
		return nil, fmt.Errorf("trace: reading capture footer: %w", err)
	}
	if got := crc32.ChecksumIEEE(footer); got != footerCRC {
		return nil, corrupt("footer CRC mismatch: file %#08x, computed %#08x", footerCRC, got)
	}
	nFrames := int(footerLen / cap2FrameMeta)
	frames := make([]cap2Frame, nFrames)
	for f := range frames {
		e := footer[f*cap2FrameMeta:]
		frames[f] = cap2Frame{
			off:     int64(binary.LittleEndian.Uint64(e[0:8])),
			len:     binary.LittleEndian.Uint32(e[8:12]),
			crc:     binary.LittleEndian.Uint32(e[12:16]),
			firstPC: binary.LittleEndian.Uint32(e[16:20]),
		}
	}

	// Header: its extent is implied by the first frame offset (or the
	// footer, for an empty trace), so it can be read and CRC-checked whole.
	headerEnd := footerOff
	if nFrames > 0 {
		headerEnd = frames[0].off
	}
	if headerEnd < minHeader || headerEnd > footerOff {
		return nil, corrupt("header extent %d out of bounds", headerEnd)
	}
	hdr := make([]byte, headerEnd)
	if _, err := ra.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("trace: reading capture header: %w", err)
	}
	if got := crc32.ChecksumIEEE(hdr[:headerEnd-4]); got != binary.LittleEndian.Uint32(hdr[headerEnd-4:]) {
		return nil, corrupt("header CRC mismatch")
	}
	p := hdr[:headerEnd-4]
	if string(p[:len(cap2Magic)]) != cap2Magic {
		return nil, corrupt("bad capture magic %q", p[:len(cap2Magic)])
	}
	p = p[len(cap2Magic):]
	next := func(what string) (uint64, error) {
		v, sz := binary.Uvarint(p)
		if sz <= 0 {
			return 0, corrupt("header %s truncated", what)
		}
		p = p[sz:]
		return v, nil
	}
	nameLen, err := next("name")
	if err != nil {
		return nil, err
	}
	if nameLen > capFileMaxName || nameLen > uint64(len(p)) {
		return nil, corrupt("bench name length %d", nameLen)
	}
	name := string(p[:nameLen])
	p = p[nameLen:]
	b, ok := bench.ByName(name)
	if !ok {
		return nil, corrupt("unknown benchmark %q", name)
	}
	nStatics, err := next("statics count")
	if err != nil {
		return nil, err
	}
	if nStatics > capFileMaxStatics || nStatics*4 > uint64(size) {
		return nil, corrupt("statics count %d exceeds %d-byte input", nStatics, size)
	}
	if nStatics*4 > uint64(len(p)) {
		return nil, corrupt("statics table truncated")
	}
	ix := &cap2Index{b: b, frames: frames, size: size}
	ix.statics = make([]Static, nStatics)
	for i := range ix.statics {
		ix.statics[i] = staticFor(isa.Decode(binary.LittleEndian.Uint32(p[i*4:])))
	}
	p = p[nStatics*4:]
	rows, err := next("row count")
	if err != nil {
		return nil, err
	}
	if rows > b.MaxInsts {
		return nil, corrupt("rows %d exceed %s's limit %d", rows, b.Name, b.MaxInsts)
	}
	if rows*cap2MinRowBytes > uint64(size) {
		return nil, corrupt("rows %d cannot fit %d-byte input", rows, size)
	}
	if len(p) != 4 {
		return nil, corrupt("header carries %d trailing bytes", len(p))
	}
	ix.rows = int(rows)
	ix.lastNextPC = binary.LittleEndian.Uint32(p)

	if want := (ix.rows + FrameRows - 1) / FrameRows; nFrames != want {
		return nil, corrupt("%d frames indexed, %d rows imply %d", nFrames, ix.rows, want)
	}
	// Frames must tile [headerEnd, footerOff) exactly; contiguity makes
	// every payload slice of a mapped file safe by construction.
	expect := headerEnd
	for f := range frames {
		if frames[f].off != expect {
			return nil, corrupt("frame %d at offset %d, expected %d", f, frames[f].off, expect)
		}
		expect += int64(frames[f].len)
	}
	if expect != footerOff {
		return nil, corrupt("frames end at %d, footer starts at %d", expect, footerOff)
	}
	return ix, nil
}

// decodeAll eagerly decodes every frame into a fully resident Capture, the
// SIGCAP01-equivalent tier. payload returns the raw bytes of one frame.
func (ix *cap2Index) decodeAll(payload func(cap2Frame) ([]byte, error)) (*Capture, error) {
	cp := NewCapture(ix.b)
	cp.statics = ix.statics
	for i := range ix.statics {
		cp.slotOf[ix.statics[i].Inst.Raw] = uint32(i)
	}
	cp.lastNextPC = ix.lastNextPC
	n := ix.rows
	cp.slot = make([]uint32, n)
	cp.pc = make([]uint32, n)
	cp.srcA = make([]uint32, n)
	cp.srcB = make([]uint32, n)
	cp.result = make([]uint32, n)
	cp.sig = make([]uint32, n)
	sc := newCap2Scratch(len(ix.statics))
	for f := range ix.frames {
		lo, hi := ix.frameSpan(f)
		p, err := payload(ix.frames[f])
		if err != nil {
			return nil, err
		}
		if err := decodeCap2Frame(p, ix.frames[f], uint64(len(ix.statics)),
			cp.slot[lo:hi], cp.pc[lo:hi], cp.srcA[lo:hi], cp.srcB[lo:hi],
			cp.result[lo:hi], cp.sig[lo:hi], sc); err != nil {
			return nil, err
		}
	}
	return cp, nil
}

// readCapture2Bytes eagerly decodes an in-memory SIGCAP02 image, the
// io.Reader entry point's v2 branch.
func readCapture2Bytes(data []byte) (*Capture, error) {
	ix, err := openCap2Index(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, err
	}
	return ix.decodeAll(func(fr cap2Frame) ([]byte, error) {
		return data[fr.off : fr.off+int64(fr.len)], nil
	})
}
