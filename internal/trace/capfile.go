package trace

// SIGCAP01: the compact persistent form of a Capture.
//
// SIGTRC01 (file.go) streams full 37-byte Exec records so a trace can be
// replayed anywhere without the benchmark binary; it is the interchange
// format. SIGCAP01 instead persists the in-memory columnar Capture — the
// representation the replay engine actually consumes — at a fraction of the
// size, so the simulation service can demote cold captures to disk and warm
// new shards from a capture directory instead of re-interpreting.
//
// Layout (all integers little-endian; "uvarint"/"svarint" are Go's
// binary.{Put,Read}Uvarint with svarint zigzag-mapped first):
//
//	magic     "SIGCAP01"
//	name      uvarint length + benchmark name bytes
//	statics   uvarint count, then one raw u32 instruction word per slot —
//	          every other Static field is re-derived by isa.Decode on load
//	insts     uvarint row count
//	lastNext  u32 NextPC of the final instruction
//	taken     ceil(insts/8) bytes, bit i = branch outcome of row i
//	slot      insts × uvarint statics index
//	pc        insts × svarint delta vs previous row's pc
//	srcA      insts × svarint delta vs previous row of the SAME slot
//	srcB      insts × svarint delta, per slot as srcA
//	result    insts × svarint delta, per slot as srcA
//	sig       insts × uvarint XOR vs previous row of the same slot
//	crc       u32 IEEE CRC-32 of every preceding byte
//
// The per-slot predictors are what make the format compact: a load in a
// loop sees its base register step by the stride (tiny signed delta) and
// its packed significance word barely change (XOR ≈ 0), so the columns
// that dominate the in-memory capture (24 B/row) shrink to ~1–2 B each.
// The suite-wide budget is ≤ CapFileMaxBytesPerInst, enforced by test.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/bench"
	"repro/internal/isa"
)

const capMagic = "SIGCAP01"

// CapFileMaxBytesPerInst is the persistent-format budget: a serialized
// capture must average at or under this many bytes per recorded
// instruction across the standard suite (enforced by test). Half the
// in-memory columnar footprint, a third of a SIGTRC01 record.
const CapFileMaxBytesPerInst = 12

// CapFileExt is the conventional filename extension for SIGCAP01 files.
const CapFileExt = ".sigcap"

// capFileMaxName bounds the benchmark-name field when decoding.
const capFileMaxName = 256

// capFileMaxStatics bounds the statics table when decoding; real traces
// hold a few hundred distinct words, so anything near this is corruption.
const capFileMaxStatics = 1 << 20

// CorruptError reports a structurally invalid capture file: bad magic,
// truncation, counts that cannot fit the input, CRC mismatch. The trace
// cache treats it like any load failure — degrade to a cache miss and
// re-capture — but the type lets callers distinguish a damaged file from
// an environmental error (permissions, I/O) worth retrying.
type CorruptError struct {
	Format string // "SIGCAP01" or "SIGCAP02"
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("trace: corrupt %s capture: %s", e.Format, e.Reason)
}

// zigzag maps a signed 32-bit delta to an unsigned value with small
// magnitudes near zero, the standard varint-friendly encoding.
func zigzag(d int32) uint64 {
	return uint64((uint32(d) << 1) ^ uint32(d>>31))
}

func unzigzag(u uint64) uint32 {
	v := uint32(u)
	return (v >> 1) ^ -(v & 1)
}

// crcWriter counts and checksums everything written through it.
type crcWriter struct {
	w   io.Writer
	crc hash.Hash32
	n   int64
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc.Write(p[:n])
	cw.n += int64(n)
	return n, err
}

// WriteTo serializes the capture as SIGCAP01, implementing io.WriterTo.
// The capture must be complete (CaptureRun, or Record + Finalize);
// concurrent Replays are fine, concurrent recording is not.
func (cp *Capture) WriteTo(w io.Writer) (int64, error) {
	cw := &crcWriter{w: w, crc: crc32.NewIEEE()}
	bw := bufio.NewWriterSize(cw, 1<<16)
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		bw.Write(scratch[:n])
	}
	putU32 := func(v uint32) {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		bw.Write(scratch[:4])
	}

	bw.WriteString(capMagic)
	putUvarint(uint64(len(cp.bench.Name)))
	bw.WriteString(cp.bench.Name)

	putUvarint(uint64(len(cp.statics)))
	for i := range cp.statics {
		putU32(cp.statics[i].Inst.Raw)
	}

	n := len(cp.slot)
	putUvarint(uint64(n))
	putU32(cp.lastNextPC)

	taken := make([]byte, (n+7)/8)
	for i, sw := range cp.slot {
		if sw&TakenBit != 0 {
			taken[i>>3] |= 1 << (i & 7)
		}
	}
	bw.Write(taken)

	for _, sw := range cp.slot {
		putUvarint(uint64(sw & SlotMask))
	}
	var prevPC uint32
	for _, pc := range cp.pc {
		putUvarint(zigzag(int32(pc - prevPC)))
		prevPC = pc
	}
	prev := make([]uint32, len(cp.statics))
	for _, col := range [][]uint32{cp.srcA, cp.srcB, cp.result} {
		clear(prev)
		for i, v := range col {
			s := cp.slot[i] & SlotMask
			putUvarint(zigzag(int32(v - prev[s])))
			prev[s] = v
		}
	}
	clear(prev)
	for i, v := range cp.sig {
		s := cp.slot[i] & SlotMask
		putUvarint(uint64(v ^ prev[s]))
		prev[s] = v
	}

	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	sum := cw.crc.Sum32()
	binary.LittleEndian.PutUint32(scratch[:4], sum)
	if _, err := cw.Write(scratch[:4]); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// crcReader checksums everything read through it; the trailer is read from
// the underlying bufio.Reader directly so it is not hashed.
type crcReader struct {
	r   *bufio.Reader
	crc hash.Hash32
	one [1]byte
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.crc.Write(p[:n])
	return n, err
}

func (cr *crcReader) ReadByte() (byte, error) {
	b, err := cr.r.ReadByte()
	if err == nil {
		cr.one[0] = b
		cr.crc.Write(cr.one[:])
	}
	return b, err
}

// ReadCaptureFrom decodes a persisted capture stream — SIGCAP01 or
// SIGCAP02, dispatched on the leading magic — back into a fully resident,
// replay-ready Capture. The benchmark named in the header must exist in the
// served suite (its memory image is rebuilt from the benchmark, not the
// file). Decoding verifies every CRC; a capture that loads cleanly replays
// bit-identically to the one that was written. Structural damage surfaces
// as a *CorruptError, and header counts are validated against the input
// size (when the reader exposes one) before any column is allocated, so a
// corrupt or adversarial header cannot trigger a huge allocation.
func ReadCaptureFrom(r io.Reader) (*Capture, error) {
	return readCaptureFrom(r, inputSize(r))
}

// inputSize reports how many bytes r can still yield, or -1 when unknowable.
// Known sizes let the header decoders reject impossible counts up front.
func inputSize(r io.Reader) int64 {
	switch v := r.(type) {
	case *os.File:
		if fi, err := v.Stat(); err == nil && fi.Mode().IsRegular() {
			return fi.Size()
		}
	case *bytes.Reader:
		return int64(v.Len())
	}
	return -1
}

func readCaptureFrom(r io.Reader, size int64) (*Capture, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic, err := br.Peek(len(capMagic))
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, &CorruptError{Format: "capture", Reason: "file truncated"}
		}
		return nil, fmt.Errorf("trace: reading capture: %w", err)
	}
	switch string(magic) {
	case capMagic:
		return readCapture1(br, size)
	case cap2Magic:
		data, err := io.ReadAll(br)
		if err != nil {
			return nil, fmt.Errorf("trace: reading capture: %w", err)
		}
		return readCapture2Bytes(data)
	default:
		return nil, &CorruptError{Format: "capture", Reason: fmt.Sprintf("bad capture magic %q", magic)}
	}
}

// readCapture1 decodes the SIGCAP01 single-stream format. size is the total
// input size when known (-1 otherwise), used to bound header counts before
// allocation.
func readCapture1(br *bufio.Reader, size int64) (*Capture, error) {
	cr := &crcReader{r: br, crc: crc32.NewIEEE()}
	fail := func(err error) (*Capture, error) {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, &CorruptError{Format: capMagic, Reason: "file truncated"}
		}
		return nil, fmt.Errorf("trace: reading capture: %w", err)
	}
	corrupt := func(format string, args ...any) (*Capture, error) {
		return nil, &CorruptError{Format: capMagic, Reason: fmt.Sprintf(format, args...)}
	}

	magic := make([]byte, len(capMagic))
	if _, err := io.ReadFull(cr, magic); err != nil {
		return fail(err)
	}
	nameLen, err := binary.ReadUvarint(cr)
	if err != nil {
		return fail(err)
	}
	if nameLen > capFileMaxName {
		return corrupt("bench name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(cr, name); err != nil {
		return fail(err)
	}
	b, ok := bench.ByName(string(name))
	if !ok {
		return corrupt("unknown benchmark %q", name)
	}
	cp := NewCapture(b)

	nStatics, err := binary.ReadUvarint(cr)
	if err != nil {
		return fail(err)
	}
	if nStatics > capFileMaxStatics {
		return corrupt("statics table size %d", nStatics)
	}
	if size >= 0 && nStatics*4 > uint64(size) {
		return corrupt("statics count %d exceeds %d-byte input", nStatics, size)
	}
	cp.statics = make([]Static, nStatics)
	var word [4]byte
	for i := range cp.statics {
		if _, err := io.ReadFull(cr, word[:]); err != nil {
			return fail(err)
		}
		raw := binary.LittleEndian.Uint32(word[:])
		cp.statics[i] = staticFor(isa.Decode(raw))
		cp.slotOf[raw] = uint32(i)
	}

	rows, err := binary.ReadUvarint(cr)
	if err != nil {
		return fail(err)
	}
	if rows > b.MaxInsts {
		return corrupt("rows %d exceed %s's limit %d", rows, b.Name, b.MaxInsts)
	}
	if size >= 0 && rows*cap2MinRowBytes > uint64(size) {
		return corrupt("rows %d cannot fit %d-byte input", rows, size)
	}
	n := int(rows)
	if _, err := io.ReadFull(cr, word[:]); err != nil {
		return fail(err)
	}
	cp.lastNextPC = binary.LittleEndian.Uint32(word[:])

	taken := make([]byte, (n+7)/8)
	if _, err := io.ReadFull(cr, taken); err != nil {
		return fail(err)
	}

	cp.slot = make([]uint32, n)
	for i := range cp.slot {
		s, err := binary.ReadUvarint(cr)
		if err != nil {
			return fail(err)
		}
		if s >= nStatics {
			return corrupt("row %d references slot %d of %d", i, s, nStatics)
		}
		sw := uint32(s)
		if taken[i>>3]&(1<<(i&7)) != 0 {
			sw |= TakenBit
		}
		cp.slot[i] = sw
	}
	cp.pc = make([]uint32, n)
	var prevPC uint32
	for i := range cp.pc {
		d, err := binary.ReadUvarint(cr)
		if err != nil {
			return fail(err)
		}
		prevPC += unzigzag(d)
		cp.pc[i] = prevPC
	}
	prev := make([]uint32, nStatics)
	for _, col := range []*[]uint32{&cp.srcA, &cp.srcB, &cp.result} {
		*col = make([]uint32, n)
		clear(prev)
		for i := range *col {
			d, err := binary.ReadUvarint(cr)
			if err != nil {
				return fail(err)
			}
			s := cp.slot[i] & SlotMask
			prev[s] += unzigzag(d)
			(*col)[i] = prev[s]
		}
	}
	cp.sig = make([]uint32, n)
	clear(prev)
	for i := range cp.sig {
		d, err := binary.ReadUvarint(cr)
		if err != nil {
			return fail(err)
		}
		if d > 1<<32-1 {
			return corrupt("row %d sig delta overflows", i)
		}
		s := cp.slot[i] & SlotMask
		prev[s] ^= uint32(d)
		cp.sig[i] = prev[s]
	}

	sum := cr.crc.Sum32()
	if _, err := io.ReadFull(br, word[:]); err != nil {
		return fail(err)
	}
	if got := binary.LittleEndian.Uint32(word[:]); got != sum {
		return corrupt("CRC mismatch: file %#08x, computed %#08x", got, sum)
	}
	return cp, nil
}

// CaptureFilePath is the conventional location for b's persisted capture
// inside dir: <dir>/<bench-name>.sigcap.
func CaptureFilePath(dir, benchName string) string {
	return filepath.Join(dir, benchName+CapFileExt)
}

// WriteCaptureFile persists cp under dir at its conventional path,
// atomically (tmp + rename), so concurrent readers never observe a partial
// file. It returns the final path. New files are written as SIGCAP02 so
// they are mmap-servable (OpenMappedCapture); ReadCaptureFile still reads
// SIGCAP01 spills from before the format switch.
func WriteCaptureFile(dir string, cp *Capture) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := CaptureFilePath(dir, cp.bench.Name)
	tmp, err := os.CreateTemp(dir, cp.bench.Name+".tmp*")
	if err != nil {
		return "", err
	}
	if _, err := cp.WriteTo2(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	// CreateTemp makes 0600 files; captures are shareable artifacts.
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	return path, nil
}

// ReadCaptureFile eagerly loads a capture file written by WriteCaptureFile,
// either format. SIGCAP02 files Materialize through their footer index with
// positional reads (no whole-file copy, and no mapping: this is the load
// for callers that must not map the file, such as a trace dir on a
// filesystem with unreliable page faults); for the lazy O(index) tier use
// OpenMappedCapture instead.
func ReadCaptureFile(path string) (*Capture, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var magic [len(cap2Magic)]byte
	if _, err := f.ReadAt(magic[:], 0); err == nil && string(magic[:]) == cap2Magic {
		mc, err := openCap2Handle(f)
		if err != nil {
			return nil, err
		}
		return mc.Materialize()
	}
	return ReadCaptureFrom(f)
}
