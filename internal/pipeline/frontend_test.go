package pipeline

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/trace"
)

// byteFetchTestNames are the registered byte-fetch models.
var byteFetchTestNames = []string{
	NameByteFetch2, NameByteFetch3, NameByteFetch4, NameByteFetch4Raw, NameDualCompress4,
}

// TestByteFetchRawMatchesBaseline32 is the tentpole equivalence anchor:
// ByteFetch(4) with recoding disabled must reproduce the word-fetch
// baseline cycle-for-cycle — cycles, instruction count, and every stall
// bucket — on every benchmark of the suite.
func TestByteFetchRawMatchesBaseline32(t *testing.T) {
	ctx := context.Background()
	for _, b := range bench.All() {
		cp, err := trace.CaptureRun(ctx, b)
		if err != nil {
			t.Fatalf("capture %s: %v", b.Name, err)
		}
		base := NewBaseline32()
		raw := New(NameByteFetch4Raw)
		if err := cp.ReplayBlocks(ctx, testRecoder, base, raw); err != nil {
			t.Fatalf("replay %s: %v", b.Name, err)
		}
		rb, rr := base.Result(), raw.Result()
		if rb.Cycles != rr.Cycles || rb.Insts != rr.Insts {
			t.Errorf("%s: baseline %d cycles / %d insts, bytefetch4-raw %d cycles / %d insts",
				b.Name, rb.Cycles, rb.Insts, rr.Cycles, rr.Insts)
		}
		if !reflect.DeepEqual(rb.Stalls, rr.Stalls) {
			t.Errorf("%s: stall breakdown diverges\nbaseline: %v\nraw:      %v",
				b.Name, rb.Stalls, rr.Stalls)
		}
	}
}

// TestByteFetchLiveReplayBatchIdentical pins, for every byte-fetch model,
// the kernel over the streaming interpreter (trace.Interpret) and over a
// capture against the oracle: all three must produce the same Result.
func TestByteFetchLiveReplayBatchIdentical(t *testing.T) {
	ctx := context.Background()
	b, _ := bench.ByName("g711dec")
	cp := captureBench(t, "g711dec")
	for _, name := range byteFetchTestNames {
		live, scalar, batch := New(name), New(name), New(name)
		c, err := b.NewCPU()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := trace.Interpret(ctx, c, b.MaxInsts, nil, testRecoder, live); err != nil || !c.Done {
			t.Fatalf("%s live: %v (halted %v)", name, err, c.Done)
		}
		if err := oracleReplay(cp, scalar); err != nil {
			t.Fatalf("%s oracle replay: %v", name, err)
		}
		if err := cp.ReplayBlocks(ctx, testRecoder, batch); err != nil {
			t.Fatalf("%s batch replay: %v", name, err)
		}
		rl, rs, rb := live.Result(), scalar.Result(), batch.Result()
		if !reflect.DeepEqual(rl, rs) || !reflect.DeepEqual(rs, rb) {
			t.Errorf("%s: paths diverge\nlive:   %+v\nscalar: %+v\nbatch:  %+v", name, rl, rs, rb)
		}
		fl, fs, fb := live.FetchUnit(), scalar.FetchUnit(), batch.FetchUnit()
		if !reflect.DeepEqual(fl, fs) || !reflect.DeepEqual(fs, fb) {
			t.Errorf("%s: frontend stats diverge\nlive:   %+v\nscalar: %+v\nbatch:  %+v", name, fl, fs, fb)
		}
	}
}

// storeExec builds a sw t1, 0(t0).
func storeExec(pc uint32, addr, val uint32) cpu.Exec {
	raw := isa.EncodeI(isa.OpSW, isa.RegT0, isa.RegT1, 0)
	return cpu.Exec{
		PC: pc, Raw: raw, Inst: isa.Decode(raw),
		SrcA: addr, SrcB: val, ReadsA: true, ReadsB: true,
		Addr: addr, MemWidth: 4,
		NextPC: pc + 4,
	}
}

// randomFrontendTrace builds a seeded random instruction stream exercising
// every frontend path: mixed 3/4-byte recodings, dependent ALU chains,
// loads, stores, and taken/not-taken branches.
func randomFrontendTrace(seed int64, n int) []trace.Event {
	rng := rand.New(rand.NewSource(seed))
	regs := []isa.Reg{isa.RegT2, isa.RegT3, isa.RegT4, isa.RegT5}
	events := make([]trace.Event, 0, n)
	pc := uint32(0x0040_0000)
	for i := 0; i < n; i++ {
		var e cpu.Exec
		switch r := rng.Intn(10); {
		case r < 5: // ALU, sometimes consuming a recent destination
			e = aluExec(pc, regs[rng.Intn(len(regs))], rng.Uint32(), rng.Uint32())
			e.Inst.Rs = regs[rng.Intn(len(regs))]
			e.Inst.Rt = regs[rng.Intn(len(regs))]
		case r < 7:
			e = loadExec(pc, regs[rng.Intn(len(regs))], 0x1000_0000+uint32(rng.Intn(64))*4, rng.Uint32())
		case r < 8:
			e = storeExec(pc, 0x1000_0000+uint32(rng.Intn(64))*4, rng.Uint32())
		default:
			e = branchExec(pc, 0, uint32(rng.Intn(2)), rng.Intn(3) == 0)
		}
		pc = e.NextPC
		if pc >= 0x0040_0400 || pc < 0x0040_0000 {
			pc = 0x0040_0000
		}
		ev := annotate(e)
		// Override the recoded size with a seeded mix so the compressed
		// share is controlled by the trace, not the recoder.
		ev.IFBytes = 3
		if rng.Intn(4) == 0 {
			ev.IFBytes = 4
		}
		events = append(events, ev)
	}
	return events
}

// TestFetchBufferProperties checks the fetch-buffer invariants across
// seeded random traces and every configured bandwidth: occupancy never
// exceeds the capacity, and per-cycle decode issue never exceeds the
// model's issue width (1, or 2 when dual-issue pairs).
func TestFetchBufferProperties(t *testing.T) {
	widths := []int{1, 2, 3, 4, 6, 8}
	for seed := int64(1); seed <= 5; seed++ {
		events := randomFrontendTrace(seed, 3000)
		for _, w := range widths {
			for _, dual := range []bool{false, true} {
				m := NewByteFetch(w, dual, false)
				for _, ev := range events {
					m.Consume(ev)
				}
				fu := m.FetchUnit()
				r := m.Result()
				if fu.MaxOccupancy > uint64(fu.BufferBytes) {
					t.Fatalf("seed %d %s: buffer occupancy %d exceeds capacity %d",
						seed, m.Name(), fu.MaxOccupancy, fu.BufferBytes)
				}
				if !dual {
					if fu.DualIssued != 0 || fu.IssueCycles != r.Insts {
						t.Fatalf("seed %d %s: single-issue frontend issued %d pairs over %d cycles for %d insts",
							seed, m.Name(), fu.DualIssued, fu.IssueCycles, r.Insts)
					}
				} else {
					if fu.IssueCycles+fu.DualIssued != r.Insts {
						t.Fatalf("seed %d %s: issue accounting broken: %d cycles + %d pairs != %d insts",
							seed, m.Name(), fu.IssueCycles, fu.DualIssued, r.Insts)
					}
					if fu.DualIssued > fu.IssueCycles {
						t.Fatalf("seed %d %s: more pairs (%d) than issue cycles (%d): >2 per cycle",
							seed, m.Name(), fu.DualIssued, fu.IssueCycles)
					}
				}
				if ipc := fu.IntoDecodeIPC(r.Insts); ipc > 2.0 {
					t.Fatalf("seed %d %s: into-decode IPC %.3f exceeds the decode width", seed, m.Name(), ipc)
				}
			}
		}
	}
}

// TestFetchBufferDrainsMonotonically: more fetch bandwidth never costs
// cycles — the same trace through increasing byte budgets yields
// non-increasing total cycles, and dual issue never loses to single issue
// at the same budget.
func TestFetchBufferDrainsMonotonically(t *testing.T) {
	widths := []int{1, 2, 3, 4, 6, 8}
	for seed := int64(1); seed <= 5; seed++ {
		events := randomFrontendTrace(seed, 3000)
		run := func(w int, dual bool) uint64 {
			m := NewByteFetch(w, dual, false)
			for _, ev := range events {
				m.Consume(ev)
			}
			return m.Result().Cycles
		}
		prev := uint64(1<<63 - 1)
		for _, w := range widths {
			c := run(w, false)
			if c > prev {
				t.Fatalf("seed %d: cycles increased with bandwidth: %d B/cyc -> %d cycles (prev %d)",
					seed, w, c, prev)
			}
			prev = c
		}
		if single, dual := run(4, false), run(4, true); dual > single {
			t.Fatalf("seed %d: dual issue costs cycles: %d vs single %d", seed, dual, single)
		}
	}
}

// TestByteFetchBackpressure: a fetch path wider than the decode drain rate
// must fill the buffer and charge fetch-buffer stalls rather than fetching
// unboundedly ahead.
func TestByteFetchBackpressure(t *testing.T) {
	m := NewByteFetch(8, false, true) // 8 B/cycle raw: fetches 2 insts/cycle, decode drains 1
	for _, e := range loopStream(2000, func(i int, pc uint32) cpu.Exec {
		return aluExec(pc, isa.RegT2, 1, 2)
	}) {
		m.Consume(annotate(e))
	}
	fu := m.FetchUnit()
	if fu.BufferStalls == 0 {
		t.Fatal("wide fetch into a 1-inst/cycle decode produced no buffer backpressure")
	}
	if fu.MaxOccupancy < uint64(fu.BufferBytes)-4 {
		t.Fatalf("buffer never approached capacity: max occupancy %d of %d", fu.MaxOccupancy, fu.BufferBytes)
	}
	if r := m.Result(); r.Stalls[StallFetchBuf] != fu.BufferStalls {
		t.Fatalf("stall map (%d) and frontend stats (%d) disagree on buffer stalls",
			r.Stalls[StallFetchBuf], fu.BufferStalls)
	}
}

// TestDualIssueCompressedStream: an all-compressed independent ALU stream
// at 4 B/cycle sustains more than one instruction into decode per issue
// cycle — the DRiM effect the model family exists to measure.
func TestDualIssueCompressedStream(t *testing.T) {
	m := NewByteFetch(4, true, false)
	for _, e := range loopStream(4000, func(i int, pc uint32) cpu.Exec {
		// Independent ALU ops with distinct destinations so no intra-pair
		// RAW dependence blocks pairing.
		return aluExec(pc, []isa.Reg{isa.RegT2, isa.RegT3}[i%2], 1, 2)
	}) {
		ev := annotate(e)
		ev.IFBytes = 3
		m.Consume(ev)
	}
	fu := m.FetchUnit()
	r := m.Result()
	if fu.DualIssued == 0 {
		t.Fatal("compressed stream at 4 B/cycle never dual-issued")
	}
	if ipc := fu.IntoDecodeIPC(r.Insts); ipc <= 1.0 {
		t.Fatalf("into-decode IPC %.3f, want > 1.0 on an all-compressed stream", ipc)
	}
}

// TestDualIssuePairingExclusions: intra-pair RAW dependences and
// memory-operation pairs must not dual-issue.
func TestDualIssuePairingExclusions(t *testing.T) {
	run := func(gen func(i int, pc uint32) cpu.Exec) *FetchUnitStats {
		m := NewByteFetch(4, true, false)
		for _, e := range loopStream(2000, gen) {
			ev := annotate(e)
			ev.IFBytes = 3
			m.Consume(ev)
		}
		return m.FetchUnit()
	}
	// A dependent chain: every instruction reads the previous destination.
	chain := run(func(i int, pc uint32) cpu.Exec {
		e := aluExec(pc, isa.RegT2, 1, 2)
		e.Inst.Rs, e.Inst.Rt = isa.RegT2, isa.RegT2
		return e
	})
	if chain.DualIssued != 0 {
		t.Fatalf("RAW-dependent chain dual-issued %d pairs", chain.DualIssued)
	}
	// Back-to-back memory operations: the single MEM port forbids pairing.
	mem := run(func(i int, pc uint32) cpu.Exec {
		return loadExec(pc, []isa.Reg{isa.RegT2, isa.RegT3}[i%2], 0x1000_0000+uint32(i%16)*4, 7)
	})
	if mem.DualIssued != 0 {
		t.Fatalf("back-to-back memory ops dual-issued %d pairs", mem.DualIssued)
	}
}

// TestModelRegistryConsistency pins the single-source-of-truth contract:
// every advertised name constructs a model with that exact name, the
// catalog has no duplicates, and the parameterized byte-fetch spellings
// resolve to correctly named models.
func TestModelRegistryConsistency(t *testing.T) {
	seen := make(map[string]bool)
	for _, n := range AllNames() {
		if seen[n] {
			t.Fatalf("duplicate model name %q in registry", n)
		}
		seen[n] = true
		m := New(n)
		if m == nil {
			t.Fatalf("advertised model %q does not construct", n)
		}
		if m.Name() != n {
			t.Fatalf("New(%q).Name() = %q", n, m.Name())
		}
	}
	for _, n := range []string{"bytefetch6", "bytefetch8-raw", "dualc8", "dualc6-raw"} {
		m := New(n)
		if m == nil || m.Name() != n {
			t.Fatalf("parameterized spelling %q did not resolve", n)
		}
	}
	for _, bad := range []string{"bytefetch0", "bytefetch65", "dualc", "bytefetch4x", "bytefetch04"} {
		if New(bad) != nil {
			t.Fatalf("invalid spelling %q resolved to a model", bad)
		}
	}
}

// TestByteFetchNarrowerIsSlower: at full 4-byte instructions (raw), a
// narrower fetch path must cost CPI — the family orders correctly.
func TestByteFetchNarrowerIsSlower(t *testing.T) {
	cp := captureBench(t, "rawdaudio")
	ctx := context.Background()
	cycles := make(map[int]uint64)
	for _, w := range []int{1, 2, 4} {
		m := NewByteFetch(w, false, true)
		if err := cp.ReplayBlocks(ctx, testRecoder, m); err != nil {
			t.Fatal(err)
		}
		cycles[w] = m.Result().Cycles
	}
	if !(cycles[1] > cycles[2] && cycles[2] > cycles[4]) {
		t.Fatalf("raw byte-fetch family out of order: %v", cycles)
	}
}

// TestByteFetchCompressionBuysBandwidth: with recoding on, a 3 B/cycle path
// beats the raw 3 B/cycle path (compressed instructions need fewer fetch
// cycles), and bytefetch4 never loses to bytefetch4-raw.
func TestByteFetchCompressionBuysBandwidth(t *testing.T) {
	cp := captureBench(t, "g711dec")
	ctx := context.Background()
	run := func(name string) uint64 {
		m := New(name)
		if err := cp.ReplayBlocks(ctx, testRecoder, m); err != nil {
			t.Fatal(err)
		}
		return m.Result().Cycles
	}
	if comp, raw := run("bytefetch3"), run("bytefetch3-raw"); comp >= raw {
		t.Fatalf("recoding bought nothing at 3 B/cycle: compressed %d vs raw %d cycles", comp, raw)
	}
	if comp, raw := run(NameByteFetch4), run(NameByteFetch4Raw); comp > raw {
		t.Fatalf("recoding costs cycles at 4 B/cycle: compressed %d vs raw %d", comp, raw)
	}
}

func ExampleNewByteFetch() {
	m := NewByteFetch(4, true, false)
	fmt.Println(m.Name())
	// Output: dualc4
}
