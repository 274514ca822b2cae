package trace

// Capture files: the directory helpers over SIGCAP02 (capfile2.go), the one
// persistent form of a Capture. A trace dir holds one <bench>.sigcap per
// benchmark; the simulation service demotes cold captures to it and warms
// new shards from it instead of re-interpreting, and sigtrace and sigsim
// record into and replay from it.

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/bench"
)

// CapFileMaxBytesPerInst is the persistent-format budget: a serialized
// capture must average at or under this many bytes per recorded
// instruction across the standard suite (enforced by test). Half the
// in-memory columnar footprint.
const CapFileMaxBytesPerInst = 12

// CapFileExt is the conventional filename extension for capture files.
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
	Format string // the format the file was read as: "SIGCAP02"
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

// CaptureFilePath is the conventional location for b's persisted capture
// inside dir: <dir>/<bench-name>.sigcap.
func CaptureFilePath(dir, benchName string) string {
	return filepath.Join(dir, benchName+CapFileExt)
}

// WriteCaptureFile persists cp as SIGCAP02 under dir at its conventional
// path, atomically (tmp + rename), so concurrent readers never observe a
// partial file and a rewrite safely replaces a damaged or stale one. It
// returns the final path. A file names its benchmark and loads resolve the
// name in the built-in suite, so a capture of anything else (a submitted
// program) is refused rather than written where it could never load.
func WriteCaptureFile(dir string, cp *Capture) (string, error) {
	if b, ok := bench.ByName(cp.bench.Name); !ok || b.Checksum != cp.bench.Checksum {
		return "", fmt.Errorf("trace: %s is not a built-in benchmark; its capture file could never load", cp.bench.Name)
	}
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

// ReadCaptureFile eagerly loads a capture file written by WriteCaptureFile
// through ReadCapture: positional reads, no whole-file copy, and no
// mapping — this is the load for callers that must not map the file, such
// as a trace dir on a filesystem with unreliable page faults. For the lazy
// O(index) tier use OpenMappedCapture instead.
func ReadCaptureFile(path string) (*Capture, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return ReadCapture(f, fi.Size())
}

// LoadCaptureFile loads b's persisted capture from dir for replay: mapped
// and streamed (OpenMappedCapture) when mapped is set, eagerly decoded
// (ReadCaptureFile) otherwise. The file names its benchmark, but the
// caller's suite is authoritative: a capture recorded from a different
// build of b (name or checksum differ) would replay the wrong trace, so it
// is refused like a damaged one. Callers treat every error as a miss.
func LoadCaptureFile(dir string, b bench.Benchmark, mapped bool) (Replayer, error) {
	path := CaptureFilePath(dir, b.Name)
	var (
		rep Replayer
		err error
	)
	if mapped {
		rep, err = OpenMappedCapture(path)
	} else {
		rep, err = ReadCaptureFile(path)
	}
	if err != nil {
		return nil, err
	}
	if got := rep.Bench(); got.Name != b.Name || got.Checksum != b.Checksum {
		if mc, ok := rep.(*MappedCapture); ok {
			mc.Close()
		}
		return nil, fmt.Errorf("trace: %s records %s (checksum %#x), not %s (checksum %#x)",
			path, got.Name, got.Checksum, b.Name, b.Checksum)
	}
	return rep, nil
}
