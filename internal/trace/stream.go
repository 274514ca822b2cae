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
// finalizer. OpenMappedCapture maps on top of it, and ReadCaptureFile
// materializes through it as is, so the eager load never maps the file.
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

// MissStream returns the handle's published miss stream, or nil before
// its first replay has completed. The stream lives with the handle: a
// re-opened file builds it again.
func (mc *MappedCapture) MissStream() []MissEvent { return mc.misses.stream() }

// ClearMemos drops memoized per-recoder fetch-size tables.
func (mc *MappedCapture) ClearMemos() { mc.memo.clear() }

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
	cols [6][]uint32
	sc   *cap2Scratch
	raw  []byte
}

func newFrameDec(nStatics int) *frameDec {
	d := &frameDec{sc: newCap2Scratch(nStatics)}
	backing := make([]uint32, 6*FrameRows)
	for i := range d.cols {
		d.cols[i] = backing[i*FrameRows : (i+1)*FrameRows]
	}
	return d
}

// frameDecSizeBytes is the resident estimate of one replay's decode
// buffers, charged by SizeBytes so the cache accounts for a live replay.
func frameDecSizeBytes(nStatics int) int {
	return 6*FrameRows*4 + 4*nStatics*4
}

// framePayload returns frame f's raw bytes: a zero-copy slice of the
// mapping, or a positional read into the caller's reuse buffer *raw. It is
// the one place frames are read from the file.
func (mc *MappedCapture) framePayload(f int, raw *[]byte) ([]byte, error) {
	if mc.data != nil {
		return mc.ix.frameBytes(mc.data, f), nil
	}
	fr := mc.ix.frames[f]
	if int(fr.len) > cap(*raw) {
		*raw = make([]byte, fr.len)
	}
	b := (*raw)[:fr.len]
	if _, err := mc.f.ReadAt(b, fr.off); err != nil {
		return nil, err
	}
	return b, nil
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
		rows := hi - lo
		payload, err := mc.framePayload(f, &d.raw)
		if err != nil {
			return fmt.Errorf("trace: reading %s frame %d: %w", mc.ix.b.Name, f, err)
		}
		if err := decodeCap2Frame(payload, mc.ix.frames[f], nStatics,
			d.cols[0][:rows], d.cols[1][:rows], d.cols[2][:rows],
			d.cols[3][:rows], d.cols[4][:rows], d.cols[5][:rows], d.sc); err != nil {
			return fmt.Errorf("trace: replaying %s: %w", mc.ix.b.Name, err)
		}
		emitSpans(&blk, m, consumers, lo,
			d.cols[0][:rows], d.cols[1][:rows], d.cols[2][:rows],
			d.cols[3][:rows], d.cols[4][:rows], d.cols[5][:rows],
			mc.ix.frameEndNextPC(f),
			misses.next(mc.ix.statics, lo, d.cols[0][:rows], d.cols[1][:rows], d.cols[2][:rows]))
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

// Materialize eagerly decodes the whole capture into a resident *Capture,
// for callers that need the dense tier (e.g. a capture promoted back off
// disk for repeated tight-loop replays).
func (mc *MappedCapture) Materialize() (*Capture, error) {
	if err := mc.acquire(); err != nil {
		return nil, err
	}
	defer mc.release()
	var raw []byte
	return mc.ix.decodeAll(func(f int) ([]byte, error) { return mc.framePayload(f, &raw) })
}

// Interface conformance for the three block sources.
var (
	_ Replayer = (*Capture)(nil)
	_ Replayer = (*MappedCapture)(nil)
	_ Replayer = (*Live)(nil)
)
