package trace_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/cpu"
	"repro/internal/icomp"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

var rc = icomp.MustNewRecoder(icomp.DefaultTopFuncts())

// encodeTRC runs b to completion and encodes its Exec stream as a SIGTRC01
// file (nothing in the program writes the legacy format any more), returning
// the bytes and the retired instructions.
func encodeTRC(t *testing.T, b bench.Benchmark) ([]byte, []cpu.Exec) {
	t.Helper()
	c, err := b.NewCPU()
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.NewBufferString("SIGTRC01")
	var execs []cpu.Exec
	for !c.Done {
		e, err := c.Step()
		if err != nil {
			t.Fatal(err)
		}
		execs = append(execs, e)
		var rec [4*8 + 3 + 4]byte
		le := binary.LittleEndian
		for i, v := range []uint32{e.PC, e.Raw, e.SrcA, e.SrcB, e.Result, e.Addr, e.StoreVal, e.Loaded} {
			le.PutUint32(rec[4*i:], v)
		}
		var flags uint8
		for i, set := range []bool{e.ReadsA, e.ReadsB, e.HasDest, e.Taken} {
			if set {
				flags |= 1 << i
			}
		}
		rec[32], rec[33], rec[34] = flags, uint8(e.Dest), uint8(e.MemWidth)
		le.PutUint32(rec[35:], e.NextPC)
		buf.Write(rec[:])
	}
	return buf.Bytes(), execs
}

// A legacy SIGTRC01 trace loaded into a capture must reproduce the exact
// pipeline result of the live run.
func TestRecordReplayEquivalence(t *testing.T) {
	ctx := context.Background()
	b, _ := bench.ByName("g711dec")
	data, execs := encodeTRC(t, b)

	live := pipeline.NewByteSerial()
	if err := trace.NewLive(b).ReplayBlocks(ctx, rc, live); err != nil {
		t.Fatal(err)
	}
	liveRes := live.Result()
	if uint64(len(execs)) != liveRes.Insts {
		t.Fatalf("wrote %d records, live saw %d", len(execs), liveRes.Insts)
	}

	r, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := r.ReadCapture(bench.Benchmark{})
	if err != nil {
		t.Fatal(err)
	}
	replayed := pipeline.NewByteSerial()
	if err := cp.ReplayBlocks(ctx, rc, replayed); err != nil {
		t.Fatal(err)
	}
	if repRes := replayed.Result(); !reflect.DeepEqual(repRes, liveRes) {
		t.Fatalf("replay: %+v\nlive:   %+v", repRes, liveRes)
	}
}

func TestReaderRejectsBadMagic(t *testing.T) {
	if _, err := trace.NewReader(bytes.NewReader([]byte("NOTATRACE..."))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := trace.NewReader(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestReaderDetectsTruncation(t *testing.T) {
	b, _ := bench.ByName("g711dec")
	data, _ := encodeTRC(t, b)
	data = data[:len(data)-5] // chop mid-record
	r, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadCapture(b); err == nil || err == io.EOF {
		t.Fatalf("truncation not detected: %v", err)
	}
}

func TestRecordRoundTripFields(t *testing.T) {
	b, _ := bench.ByName("rawcaudio")
	data, execs := encodeTRC(t, b)
	r, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range execs[:500] {
		got, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, got, want)
		}
	}
}
