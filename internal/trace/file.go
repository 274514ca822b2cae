package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/bench"
	"repro/internal/cpu"
	"repro/internal/isa"
)

// SIGTRC01, the legacy interchange format: an 8-byte magic/version header,
// then one fixed-size little-endian record per retired instruction (the raw
// Exec fields). Nothing writes it any more — recordings are SIGCAP02
// (WriteCaptureFile) — but existing files still load: Reader.ReadCapture
// rebuilds a Capture whose replay recomputes the annotation, so the traces
// stay recoder-independent.

const traceMagic = "SIGTRC01"

// recordSize is the on-disk size of one instruction record.
const recordSize = 4 + 4 + 4 + 4 + 4 + 4 + 4 + 4 + 1 + 1 + 1 + 4

// flag bits for the record's boolean fields.
const (
	flagReadsA uint8 = 1 << iota
	flagReadsB
	flagHasDest
	flagTaken
)

// Reader decodes a SIGTRC01 trace.
type Reader struct {
	r     *bufio.Reader
	count uint64
}

// NewReader validates the header.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, len(traceMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(magic) != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	return &Reader{r: br}, nil
}

// Next returns the next record, or io.EOF at end of trace.
func (t *Reader) Next() (cpu.Exec, error) {
	var buf [recordSize]byte
	if _, err := io.ReadFull(t.r, buf[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return cpu.Exec{}, fmt.Errorf("trace: truncated record at %d", t.count)
		}
		return cpu.Exec{}, err
	}
	le := binary.LittleEndian
	e := cpu.Exec{
		PC:       le.Uint32(buf[0:]),
		Raw:      le.Uint32(buf[4:]),
		SrcA:     le.Uint32(buf[8:]),
		SrcB:     le.Uint32(buf[12:]),
		Result:   le.Uint32(buf[16:]),
		Addr:     le.Uint32(buf[20:]),
		StoreVal: le.Uint32(buf[24:]),
		Loaded:   le.Uint32(buf[28:]),
		Dest:     isa.Reg(buf[33]),
		MemWidth: int(buf[34]),
		NextPC:   le.Uint32(buf[35:]),
	}
	flags := buf[32]
	e.ReadsA = flags&flagReadsA != 0
	e.ReadsB = flags&flagReadsB != 0
	e.HasDest = flags&flagHasDest != 0
	e.Taken = flags&flagTaken != 0
	e.Inst = isa.Decode(e.Raw)
	t.count++
	return e, nil
}

// ReadCapture loads every remaining record into a finalized Capture of b,
// so a SIGTRC01 trace replays through the same block path as any other
// source. The file does not name its benchmark: b is the caller's, and
// only NewMemory depends on it (pass the zero Benchmark and replay with
// ReplayBlocks when the program is unknown).
func (t *Reader) ReadCapture(b bench.Benchmark) (*Capture, error) {
	cp := NewCapture(b)
	for {
		e, err := t.Next()
		if err == io.EOF {
			cp.Finalize()
			return cp, nil
		}
		if err != nil {
			return nil, err
		}
		cp.Record(e)
	}
}
