package trace

// Streaming replay off a mapped SIGCAP02 capture.
//
// MappedCapture is the lazy residency tier of a persisted capture: opening
// one costs the footer index and statics table (O(statics + frames) bytes),
// and replay decodes one frame at a time into a small per-replay buffer —
// O(FrameRows), not O(trace) — feeding consumers exactly the block
// boundaries and store-ordering that in-memory replay produces
// (emitSpans is shared, so the two tiers cannot diverge; the equivalence
// tests assert byte-identical results). The file itself is mapped read-only
// and MAP_SHARED, so N concurrent replays, N sweeping models, or N
// co-located shards all touch one page-cache copy of the cold columns.
//
// Lifecycle: Close marks the handle dead for new replays (ErrMappedClosed,
// a transient error — the file is still on disk, reopening succeeds) but
// the unmap itself is deferred until the last in-flight replay releases its
// reference, so cache eviction can never pull pages out from under a frame
// decode.

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"

	"repro/internal/bench"
	"repro/internal/icomp"
	"repro/internal/isa"
	"repro/internal/mem"
)

// ErrMappedClosed reports a replay attempted on a MappedCapture after
// Close (typically: the trace cache evicted the entry). It is transient —
// the capture file is intact on disk and re-opening it succeeds — so
// retry layers treat it like any recoverable fault.
var ErrMappedClosed error = &mappedClosedError{}

type mappedClosedError struct{}

func (*mappedClosedError) Error() string { return "trace: mapped capture closed" }

// Transient marks the error retryable for faultinject.IsTransient.
func (*mappedClosedError) Transient() bool { return true }

// MappedCapture is a SIGCAP02 capture served straight from its file. It
// implements Replayer next to *Capture; replays are independent and may run
// concurrently (each owns its decode buffers). Resident cost is the index,
// the statics table, and per-recoder memos — the columns stay on disk
// until a frame decode touches them.
type MappedCapture struct {
	ix   *cap2Index
	f    *os.File
	data []byte // whole-file mapping; nil on the io.ReaderAt fallback
	memo ifbMemo

	misses missMemo // hierarchy outcome, built by the first replay

	mu     sync.Mutex
	refs   int  // in-flight replays
	closed bool // no new replays; unmap when refs drains to 0
}

// OpenMappedCapture maps path (a SIGCAP02 file) for streaming replay,
// validating magic, footer index, and header — but decoding no frames.
// This is the cheap warm-start: a directory of captures can be opened in
// O(index) time and bytes, with column data faulted in on first replay.
// If the platform cannot mmap, the handle transparently falls back to
// positional reads; callers cannot tell apart from Mapped().
func OpenMappedCapture(path string) (*MappedCapture, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	mc, err := openCap2Handle(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if mmapSupported {
		if data, err := mmapFile(int(f.Fd()), mc.ix.size); err == nil {
			mc.data = data
		}
		// A failed map (exotic filesystem, address-space pressure) is not
		// an error: positional reads serve the same bytes.
	}
	// Backstop for leaked handles; the cache closes explicitly on evict.
	runtime.SetFinalizer(mc, (*MappedCapture).Close)
	return mc, nil
}

// openCap2Handle validates the SIGCAP02 index of f and returns a handle
// that reads every frame positionally; it maps nothing and sets no
// finalizer. OpenMappedCapture maps on top of it.
func openCap2Handle(f *os.File) (*MappedCapture, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	ix, err := openCap2Index(f, fi.Size())
	if err != nil {
		return nil, err
	}
	return &MappedCapture{ix: ix, f: f}, nil
}

// Bench returns the benchmark the capture recorded.
func (mc *MappedCapture) Bench() bench.Benchmark { return mc.ix.b }

// Len returns the number of recorded instructions.
func (mc *MappedCapture) Len() int { return mc.ix.rows }

// Statics returns the number of distinct instruction words recorded.
func (mc *MappedCapture) Statics() int { return len(mc.ix.statics) }

// Frames returns the number of independently decodable frames.
func (mc *MappedCapture) Frames() int { return len(mc.ix.frames) }

// Mapped reports whether the file is memory-mapped (false on the
// io.ReaderAt fallback).
func (mc *MappedCapture) Mapped() bool { return mc.data != nil }

// FileSizeBytes returns the on-disk capture size (what the page cache may
// hold, shared machine-wide — not a per-handle resident cost).
func (mc *MappedCapture) FileSizeBytes() int64 { return mc.ix.size }

// SizeBytes estimates the handle's resident memory: footer index, statics
// table, one replay's decode buffers, the per-recoder memos, and the miss
// stream once published. Mapped column pages are deliberately excluded —
// they are clean, evictable, and shared with every other replayer of the
// same file — which is what makes this tier near-free for a byte-budgeted
// cache.
func (mc *MappedCapture) SizeBytes() int {
	return mc.ix.indexSizeBytes() + frameDecSizeBytes(len(mc.ix.statics)) +
		mc.memo.sizeBytes(len(mc.ix.statics)) + mc.misses.sizeBytes()
}

// IsFile reports whether path names the file the handle reads: false once
// the handle is closed, or when path has since been replaced (a rewrite
// renames a new file over it).
func (mc *MappedCapture) IsFile(path string) bool {
	if mc.acquire() != nil {
		return false
	}
	defer mc.release()
	mine, err := mc.f.Stat()
	if err != nil {
		return false
	}
	named, err := os.Stat(path)
	return err == nil && os.SameFile(mine, named)
}

// MissStream returns the handle's published miss stream, or nil before
// its first replay has completed. The stream lives with the handle: a
// re-opened file builds it again.
func (mc *MappedCapture) MissStream() []MissEvent { return mc.misses.stream() }

// FunctCounts tallies the dynamic R-format function-code frequencies, as
// Capture.FunctCounts does, from the frames' slot columns alone. Each frame
// is read positionally, never through the mapping, so the scan leaves no
// file pages in the process's resident set; it is CRC-checked and then only
// its taken bitmap and slot column are decoded (decodeCap2Slots). A damaged
// frame is an error, never a different count.
func (mc *MappedCapture) FunctCounts() (map[isa.Funct]uint64, error) {
	if err := mc.acquire(); err != nil {
		return nil, err
	}
	defer mc.release()
	perSlot := make([]uint64, len(mc.ix.statics))
	slot := make([]uint32, FrameRows)
	var raw []byte
	for f := range mc.ix.frames {
		lo, hi := mc.ix.frameSpan(f)
		p, err := readFrame(mc.f, mc.ix.frames[f], &raw)
		if err != nil {
			return nil, fmt.Errorf("trace: reading %s frame %d: %w", mc.ix.b.Name, f, err)
		}
		if _, err := decodeCap2Slots(p, mc.ix.frames[f], uint64(len(perSlot)), slot[:hi-lo]); err != nil {
			return nil, fmt.Errorf("trace: counting %s: %w", mc.ix.b.Name, err)
		}
		tallySlots(perSlot, slot[:hi-lo])
	}
	return functsOf(mc.ix.statics, perSlot), nil
}

// NewMemory rebuilds the benchmark's initial memory image.
func (mc *MappedCapture) NewMemory() (*mem.Memory, error) {
	c, err := mc.ix.b.NewCPU()
	if err != nil {
		return nil, err
	}
	return c.Mem, nil
}

// Close retires the handle: new replays fail with ErrMappedClosed, and the
// mapping and file close once the last in-flight replay finishes (at once
// when idle). Safe to call more than once.
func (mc *MappedCapture) Close() error {
	mc.mu.Lock()
	if mc.closed {
		mc.mu.Unlock()
		return nil
	}
	mc.closed = true
	idle := mc.refs == 0
	mc.mu.Unlock()
	if idle {
		return mc.unmap()
	}
	return nil
}

func (mc *MappedCapture) acquire() error {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if mc.closed {
		return fmt.Errorf("trace: replaying %s: %w", mc.ix.b.Name, ErrMappedClosed)
	}
	mc.refs++
	return nil
}

func (mc *MappedCapture) release() {
	mc.mu.Lock()
	mc.refs--
	last := mc.closed && mc.refs == 0
	mc.mu.Unlock()
	if last {
		mc.unmap()
	}
}

// unmap releases the mapping and file. Reached exactly once: by Close when
// idle, or by the final release after Close — never while a replay holds a
// reference.
func (mc *MappedCapture) unmap() error {
	runtime.SetFinalizer(mc, nil)
	var err error
	if mc.data != nil {
		err = munmapFile(mc.data)
		mc.data = nil
	}
	if cerr := mc.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// frameDec is one replay's private decode state: six column buffers of
// FrameRows rows, the per-slot predictor scratch, and (fallback only) a
// raw frame byte buffer. Concurrent replays of one MappedCapture never
// share mutable state.
type frameDec struct {
	cols chunk
	sc   *cap2Scratch
	raw  []byte
}

func newFrameDec(nStatics int) *frameDec {
	return &frameDec{cols: newChunk(FrameRows), sc: newCap2Scratch(nStatics)}
}

// frameDecSizeBytes is the resident estimate of one replay's decode
// buffers, charged by SizeBytes so the cache accounts for an in-flight
// replay.
func frameDecSizeBytes(nStatics int) int {
	return 6*FrameRows*4 + 4*nStatics*4
}

// framePayload returns frame f's raw bytes: a zero-copy slice of the
// mapping, or a positional read into the caller's reuse buffer *raw. It is
// the one place replay reads frames from the file.
func (mc *MappedCapture) framePayload(f int, raw *[]byte) ([]byte, error) {
	if mc.data != nil {
		return mc.ix.frameBytes(mc.data, f), nil
	}
	return readFrame(mc.f, mc.ix.frames[f], raw)
}

// replayFrames is the replay engine behind both MappedCapture replays:
// decode each frame, CRC-checked, into the replay's buffers,
// then fan it out through the shared emitSpans — one frame is exactly one
// block, so consumers see the same boundaries as Capture.ReplayBlocksOn.
func (mc *MappedCapture) replayFrames(ctx context.Context, m *mem.Memory, rc *icomp.Recoder, consumers []Consumer) error {
	if err := mc.acquire(); err != nil {
		return err
	}
	defer mc.release()
	ifb := mc.memo.tableFor(rc, mc.ix.statics)
	d := newFrameDec(len(mc.ix.statics))
	blk := Block{Statics: mc.ix.statics, IFB: ifb}
	misses := mc.misses.cursor()
	nStatics := uint64(len(mc.ix.statics))
	for f := range mc.ix.frames {
		select {
		case <-ctx.Done():
			return fmt.Errorf("trace: replaying %s aborted after %d instructions: %w",
				mc.ix.b.Name, f*FrameRows, ctx.Err())
		default:
		}
		lo, hi := mc.ix.frameSpan(f)
		payload, err := mc.framePayload(f, &d.raw)
		if err != nil {
			return fmt.Errorf("trace: reading %s frame %d: %w", mc.ix.b.Name, f, err)
		}
		ch := d.cols.head(hi - lo)
		if err := decodeCap2Frame(payload, mc.ix.frames[f], nStatics,
			ch[0], ch[1], ch[2], ch[3], ch[4], ch[5], d.sc); err != nil {
			return fmt.Errorf("trace: replaying %s: %w", mc.ix.b.Name, err)
		}
		emitSpans(&blk, m, consumers, lo, ch, mc.ix.frameEndNextPC(f),
			misses.next(mc.ix.statics, lo, ch))
	}
	mc.misses.publish(&misses)
	return nil
}

// ReplayBlocks is streaming replay without a memory image.
func (mc *MappedCapture) ReplayBlocks(ctx context.Context, rc *icomp.Recoder, consumers ...Consumer) error {
	return mc.replayFrames(ctx, nil, rc, consumers)
}

// ReplayBlocksOn is streaming replay over a caller memory image; see
// Capture.ReplayBlocksOn for the memory-ordering contract.
func (mc *MappedCapture) ReplayBlocksOn(ctx context.Context, m *mem.Memory, rc *icomp.Recoder, consumers ...Consumer) error {
	return mc.replayFrames(ctx, m, rc, consumers)
}

// Interface conformance for the two block sources.
var (
	_ Replayer = (*Capture)(nil)
	_ Replayer = (*MappedCapture)(nil)
)
