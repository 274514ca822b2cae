package trace

// SIGCAP02: the frame-indexed persistent form of a Capture, and the only
// capture file format.
//
// The columns are stored with per-slot predictors — a load in a loop sees
// its base register step by the stride (tiny signed delta) and its packed
// significance word barely change (XOR ≈ 0) — so the columns that dominate
// the in-memory capture (24 B/row) shrink to ~1–2 B each. The trace is
// chopped into independently decodable frames of FrameRows rows: every
// predictor (the PC delta chain and the per-slot srcA/srcB/result/sig
// chains) resets to zero at each frame boundary, so any frame decodes from
// its own bytes alone — the "seed state" a frame needs is the constant zero
// state, at the cost of one absolute (rather than delta) varint per live
// slot per frame, well under the CapFileMaxBytesPerInst budget.
//
// Layout (integers little-endian; a uvarint is binary.AppendUvarint's
// encoding, an svarint the uvarint of the zigzag-mapped value):
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
// A reader checks the leading magic, then validates the file from the tail
// inward (trailing magic → footer index → header) without touching a
// single frame, which is what makes the mmap tier's warm-start lazy:
// OpenMappedCapture (stream.go) costs the index and statics table only;
// frames decode one at a time, CRC-checked, as replay consumes them.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"repro/internal/bench"
	"repro/internal/cpu"
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

// WriteTo2 serializes the capture as SIGCAP02. The capture must be
// complete (CaptureRun, or Record + Finalize); concurrent replays are fine,
// concurrent recording is not. Returns the bytes written.
func (cp *Capture) WriteTo2(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	le := binary.LittleEndian

	hdr := []byte(cap2Magic)
	hdr = binary.AppendUvarint(hdr, uint64(len(cp.bench.Name)))
	hdr = append(hdr, cp.bench.Name...)
	hdr = binary.AppendUvarint(hdr, uint64(len(cp.statics)))
	for i := range cp.statics {
		hdr = le.AppendUint32(hdr, cp.statics[i].Inst.Raw)
	}
	rows := len(cp.slot)
	hdr = binary.AppendUvarint(hdr, uint64(rows))
	hdr = le.AppendUint32(hdr, cp.lastNextPC)
	hdr = le.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))
	bw.Write(hdr)
	total := int64(len(hdr))

	nFrames := (rows + FrameRows - 1) / FrameRows
	footer := make([]byte, 0, nFrames*cap2FrameMeta)
	// One frame's encoding, reused across frames; sized for the common
	// case of one byte per varint.
	payload := make([]byte, 0, (FrameRows+7)/8+FrameRows*cap2MinRowBytes)
	sc := newCap2Scratch(len(cp.statics))
	for f := 0; f < nFrames; f++ {
		lo, hi := f*FrameRows, (f+1)*FrameRows
		if hi > rows {
			hi = rows
		}
		payload = cp.appendFrame(payload[:0], lo, hi, sc)
		footer = le.AppendUint64(footer, uint64(total))
		footer = le.AppendUint32(footer, uint32(len(payload)))
		footer = le.AppendUint32(footer, crc32.ChecksumIEEE(payload))
		footer = le.AppendUint32(footer, cp.pc[lo])
		bw.Write(payload)
		total += int64(len(payload))
	}

	footerOff := total
	bw.Write(footer)
	total += int64(len(footer))
	var tail [cap2TailLen]byte
	le.PutUint32(tail[0:4], crc32.ChecksumIEEE(footer))
	le.PutUint64(tail[4:12], uint64(footerOff))
	copy(tail[12:20], cap2Magic)
	bw.Write(tail[:])
	total += cap2TailLen

	if err := bw.Flush(); err != nil {
		return total, err
	}
	return total, nil
}

// appendFrame appends the self-contained encoding of rows [lo, hi) to buf.
// All predictors start from zero: the first occurrence of a slot in the
// frame pays an absolute varint instead of a delta.
func (cp *Capture) appendFrame(buf []byte, lo, hi int, sc *cap2Scratch) []byte {
	slots := cp.slot[lo:hi]
	bm := len(buf)
	buf = append(buf, make([]byte, (len(slots)+7)/8)...)
	taken := buf[bm:]
	for i, sw := range slots {
		if sw&TakenBit != 0 {
			taken[i>>3] |= 1 << (i & 7)
		}
	}
	for _, sw := range slots {
		buf = binary.AppendUvarint(buf, uint64(sw&SlotMask))
	}
	var prevPC uint32
	for _, pc := range cp.pc[lo:hi] {
		buf = binary.AppendUvarint(buf, zigzag(int32(pc-prevPC)))
		prevPC = pc
	}
	for ci, col := range [...][]uint32{cp.srcA[lo:hi], cp.srcB[lo:hi], cp.result[lo:hi]} {
		prev := sc.prev[ci]
		clear(prev)
		for i, v := range col {
			s := slots[i] & SlotMask
			buf = binary.AppendUvarint(buf, zigzag(int32(v-prev[s])))
			prev[s] = v
		}
	}
	prev := sc.prev[3]
	clear(prev)
	for i, v := range cp.sig[lo:hi] {
		s := slots[i] & SlotMask
		buf = binary.AppendUvarint(buf, uint64(v^prev[s]))
		prev[s] = v
	}
	return buf
}

// cap2Scratch is the per-slot predictor state reused across frame
// encodes/decodes: four prev arrays (srcA, srcB, result, sig). Frame
// independence means this is cleared, not carried, at every frame
// boundary.
type cap2Scratch struct {
	prev [4][]uint32
}

func newCap2Scratch(nStatics int) *cap2Scratch {
	sc := &cap2Scratch{}
	for i := range sc.prev {
		sc.prev[i] = make([]uint32, nStatics)
	}
	return sc
}

// cap2Corrupt reports a structural violation in a SIGCAP02 file.
func cap2Corrupt(format string, args ...any) error {
	return &CorruptError{Format: cap2Magic, Reason: fmt.Sprintf(format, args...)}
}

// readUvarints decodes len(dst) consecutive uvarints from p[off:] into dst,
// each truncated to 32 bits. It returns the offset just past the last one,
// negative if a varint is truncated or overflows 64 bits, and the OR of
// every value's bits above 32, so a caller that needs the full width can
// reject a wide value. Most column values fit one byte and take the inline
// fast path; a longer varint goes through binary.Uvarint and its overflow
// rules.
func readUvarints(p []byte, off int, dst []uint32) (next int, wide uint32) {
	for i := range dst {
		if uint(off) < uint(len(p)) && p[off] < 0x80 {
			dst[i] = uint32(p[off])
			off++
			continue
		}
		v, n := binary.Uvarint(p[off:])
		if n <= 0 {
			return -1, wide
		}
		dst[i] = uint32(v)
		wide |= uint32(v >> 32)
		off += n
	}
	return off, wide
}

// decodeCap2Frame decodes one frame payload into the caller's column
// slices (each len == the frame's row count), verifying the footer CRC
// first. Each column is one readUvarints pass; the predictors (PC prefix
// sum, per-slot add, per-slot XOR) then run in place, after the slot
// column has been checked against nStatics. sc provides the per-slot
// predictor scratch; it is cleared here, never carried between frames.
// Returns a *CorruptError on any structural violation — decode never
// panics on arbitrary bytes.
func decodeCap2Frame(payload []byte, fr cap2Frame, nStatics uint64,
	slot, pc, srcA, srcB, result, sig []uint32, sc *cap2Scratch) error {
	if crc32.ChecksumIEEE(payload) != fr.crc {
		return cap2Corrupt("frame at offset %d fails CRC", fr.off)
	}
	bm := (len(slot) + 7) / 8
	if len(payload) < bm {
		return cap2Corrupt("frame at offset %d truncated", fr.off)
	}
	off, wide := readUvarints(payload, bm, slot)
	for _, col := range [...][]uint32{pc, srcA, srcB, result, sig} {
		if off < 0 {
			break
		}
		off, _ = readUvarints(payload, off, col)
	}
	if off < 0 {
		return cap2Corrupt("frame at offset %d truncated", fr.off)
	}
	if off != len(payload) {
		return cap2Corrupt("frame at offset %d carries %d trailing bytes", fr.off, len(payload)-off)
	}
	if wide != 0 {
		return cap2Corrupt("frame at offset %d references a slot beyond 32 bits", fr.off)
	}
	var top uint32
	for _, s := range slot {
		top = max(top, s)
	}
	if uint64(top) >= nStatics {
		return cap2Corrupt("frame row %d references slot %d of %d", slices.Index(slot, top), top, nStatics)
	}
	taken := payload[:bm]
	for i := range slot {
		slot[i] |= uint32(taken[i>>3]>>(i&7)&1) * TakenBit
	}
	var prevPC uint32
	for i, d := range pc {
		prevPC += unzigzag(uint64(d))
		pc[i] = prevPC
	}
	if len(pc) > 0 && pc[0] != fr.firstPC {
		return cap2Corrupt("frame at offset %d firstPC %#x disagrees with index %#x", fr.off, pc[0], fr.firstPC)
	}
	for ci, col := range [...][]uint32{srcA, srcB, result} {
		prev := sc.prev[ci]
		clear(prev)
		for i, d := range col {
			s := slot[i] & SlotMask
			prev[s] += unzigzag(uint64(d))
			col[i] = prev[s]
		}
	}
	prev := sc.prev[3]
	clear(prev)
	for i, d := range sig {
		s := slot[i] & SlotMask
		prev[s] ^= d
		sig[i] = prev[s]
	}
	return nil
}

// openCap2Index validates a SIGCAP02 file and returns its index without
// decoding any frame: leading magic (so any other file is rejected by the
// magic it carries), then from the tail inward — trailing magic → footer
// (CRC, contiguity, offsets in bounds) → header (CRC, bench known, statics
// and row counts sized against the actual input before any allocation).
// This is the whole cost of a lazy warm-start.
func openCap2Index(ra io.ReaderAt, size int64) (*cap2Index, error) {
	if size >= int64(len(cap2Magic)) {
		var magic [len(cap2Magic)]byte
		if _, err := ra.ReadAt(magic[:], 0); err != nil {
			return nil, fmt.Errorf("trace: reading capture magic: %w", err)
		}
		if string(magic[:]) != cap2Magic {
			return nil, cap2Corrupt("not a %s file (magic %q)", cap2Magic, magic[:])
		}
	}
	minHeader := int64(len(cap2Magic)) + 1 + 1 + 1 + 4 + 4
	if size < minHeader+cap2TailLen {
		return nil, cap2Corrupt("file truncated (%d bytes)", size)
	}
	var tail [cap2TailLen]byte
	if _, err := ra.ReadAt(tail[:], size-cap2TailLen); err != nil {
		return nil, fmt.Errorf("trace: reading capture tail: %w", err)
	}
	if string(tail[12:20]) != cap2Magic {
		return nil, cap2Corrupt("bad trailing magic %q", tail[12:20])
	}
	footerCRC := binary.LittleEndian.Uint32(tail[0:4])
	footerOff := int64(binary.LittleEndian.Uint64(tail[4:12]))
	if footerOff < minHeader || footerOff > size-cap2TailLen {
		return nil, cap2Corrupt("footer offset %d outside file of %d bytes", footerOff, size)
	}
	footerLen := size - cap2TailLen - footerOff
	if footerLen%cap2FrameMeta != 0 {
		return nil, cap2Corrupt("footer length %d not a multiple of %d", footerLen, cap2FrameMeta)
	}
	footer := make([]byte, footerLen)
	if _, err := ra.ReadAt(footer, footerOff); err != nil {
		return nil, fmt.Errorf("trace: reading capture footer: %w", err)
	}
	if got := crc32.ChecksumIEEE(footer); got != footerCRC {
		return nil, cap2Corrupt("footer CRC mismatch: file %#08x, computed %#08x", footerCRC, got)
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
		return nil, cap2Corrupt("header extent %d out of bounds", headerEnd)
	}
	hdr := make([]byte, headerEnd)
	if _, err := ra.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("trace: reading capture header: %w", err)
	}
	if got := crc32.ChecksumIEEE(hdr[:headerEnd-4]); got != binary.LittleEndian.Uint32(hdr[headerEnd-4:]) {
		return nil, cap2Corrupt("header CRC mismatch")
	}
	p := hdr[len(cap2Magic) : headerEnd-4]
	next := func(what string) (uint64, error) {
		v, sz := binary.Uvarint(p)
		if sz <= 0 {
			return 0, cap2Corrupt("header %s truncated", what)
		}
		p = p[sz:]
		return v, nil
	}
	nameLen, err := next("name")
	if err != nil {
		return nil, err
	}
	if nameLen > capFileMaxName || nameLen > uint64(len(p)) {
		return nil, cap2Corrupt("bench name length %d", nameLen)
	}
	name := string(p[:nameLen])
	p = p[nameLen:]
	b, ok := bench.ByName(name)
	if !ok {
		return nil, cap2Corrupt("unknown benchmark %q", name)
	}
	nStatics, err := next("statics count")
	if err != nil {
		return nil, err
	}
	if nStatics > capFileMaxStatics || nStatics*4 > uint64(size) {
		return nil, cap2Corrupt("statics count %d exceeds %d-byte input", nStatics, size)
	}
	if nStatics*4 > uint64(len(p)) {
		return nil, cap2Corrupt("statics table truncated")
	}
	ix := &cap2Index{b: b, frames: frames, size: size}
	ix.statics = make([]Static, nStatics)
	for i := range ix.statics {
		ix.statics[i] = cpu.StaticOf(isa.Decode(binary.LittleEndian.Uint32(p[i*4:])))
	}
	p = p[nStatics*4:]
	rows, err := next("row count")
	if err != nil {
		return nil, err
	}
	if rows > b.MaxInsts {
		return nil, cap2Corrupt("rows %d exceed %s's limit %d", rows, b.Name, b.MaxInsts)
	}
	if rows*cap2MinRowBytes > uint64(size) {
		return nil, cap2Corrupt("rows %d cannot fit %d-byte input", rows, size)
	}
	if len(p) != 4 {
		return nil, cap2Corrupt("header carries %d trailing bytes", len(p))
	}
	ix.rows = int(rows)
	ix.lastNextPC = binary.LittleEndian.Uint32(p)

	if want := (ix.rows + FrameRows - 1) / FrameRows; nFrames != want {
		return nil, cap2Corrupt("%d frames indexed, %d rows imply %d", nFrames, ix.rows, want)
	}
	// Frames must tile [headerEnd, footerOff) exactly; contiguity makes
	// every payload slice of a mapped file safe by construction.
	expect := headerEnd
	for f := range frames {
		if frames[f].off != expect {
			return nil, cap2Corrupt("frame %d at offset %d, expected %d", f, frames[f].off, expect)
		}
		expect += int64(frames[f].len)
	}
	if expect != footerOff {
		return nil, cap2Corrupt("frames end at %d, footer starts at %d", expect, footerOff)
	}
	return ix, nil
}

// ReadCapture eagerly decodes the SIGCAP02 capture held in the first size
// bytes of ra into a fully resident, replay-ready Capture, reading the
// index and then each frame positionally. The benchmark named in the
// header must exist in the served suite (its memory image is rebuilt from
// the benchmark, not the file). Decoding verifies every CRC; a capture
// that loads cleanly replays bit-identically to the one that was written.
// Structural damage — any other format included — surfaces as a
// *CorruptError, and header counts are validated against size before any
// column is allocated, so a corrupt or adversarial header cannot trigger a
// huge allocation.
func ReadCapture(ra io.ReaderAt, size int64) (*Capture, error) {
	ix, err := openCap2Index(ra, size)
	if err != nil {
		return nil, err
	}
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
	var raw []byte
	for f := range ix.frames {
		lo, hi := ix.frameSpan(f)
		p, err := readFrame(ra, ix.frames[f], &raw)
		if err != nil {
			return nil, fmt.Errorf("trace: reading %s frame %d: %w", ix.b.Name, f, err)
		}
		if err := decodeCap2Frame(p, ix.frames[f], uint64(len(ix.statics)),
			cp.slot[lo:hi], cp.pc[lo:hi], cp.srcA[lo:hi], cp.srcB[lo:hi],
			cp.result[lo:hi], cp.sig[lo:hi], sc); err != nil {
			return nil, err
		}
	}
	return cp, nil
}

// readFrame reads frame fr's bytes positionally into the caller's reuse
// buffer *raw, growing it as needed.
func readFrame(ra io.ReaderAt, fr cap2Frame, raw *[]byte) ([]byte, error) {
	if int(fr.len) > cap(*raw) {
		*raw = make([]byte, fr.len)
	}
	b := (*raw)[:fr.len]
	if _, err := ra.ReadAt(b, fr.off); err != nil {
		return nil, err
	}
	return b, nil
}

// frameBytes returns frame f's bytes as a slice of the whole-file image
// data (a mapping). Offsets are in bounds: openCap2Index checked that the
// frames tile the file.
func (ix *cap2Index) frameBytes(data []byte, f int) []byte {
	fr := ix.frames[f]
	return data[fr.off : fr.off+int64(fr.len)]
}
