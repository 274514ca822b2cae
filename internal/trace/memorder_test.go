package trace_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/trace"
)

// lineOracle is a consumer that holds a replay's memory image to a
// reference of its own: a cpu.CPU stepped one instruction per consumed row,
// and a mem.Hierarchy driven by that CPU's accesses. When a row arrives the
// image must equal the reference CPU's memory after that row has executed.
// The oracle checks this where it can be seen cheaply: the stored word at
// every store row, and the whole line at every row where the reference
// hierarchy moves a cache line (an L1I fill, an L1D fill, or a dirty
// writeback), the state the activity collectors read there. It shares no
// code with the replay engine's span splitting or its miss stream.
type lineOracle struct {
	ref   *cpu.CPU
	hier  *mem.Hierarchy
	image *mem.Memory
	e     cpu.Exec
	rows  int
	lines int   // line comparisons made
	err   error // first divergence
}

func newLineOracle(t *testing.T, name string, image *mem.Memory) *lineOracle {
	t.Helper()
	c, err := mustBench(t, name).NewCPU()
	if err != nil {
		t.Fatal(err)
	}
	return &lineOracle{ref: c, hier: mem.NewHierarchy(mem.DefaultHierarchyConfig()), image: image}
}

func (o *lineOracle) ConsumeBlock(b *trace.Block) {
	for i := range b.Slot {
		if o.err != nil {
			return
		}
		if b.Start+i != o.rows {
			o.err = fmt.Errorf("row %d arrived as row %d", o.rows, b.Start+i)
			return
		}
		if err := o.ref.Step(&o.e); err != nil {
			o.err = fmt.Errorf("row %d: reference step: %v", o.rows, err)
			return
		}
		if o.e.PC != b.PC[i] {
			o.err = fmt.Errorf("row %d: replay PC %#x, reference %#x", o.rows, b.PC[i], o.e.PC)
			return
		}
		h := o.hier
		cfg := h.Config()
		fills := h.InstFills
		h.Fetch(o.e.PC)
		if h.InstFills != fills {
			o.compare("L1I fill", o.e.PC, cfg.L1I.LineBytes)
		}
		if o.e.Inst.IsStore() {
			o.compareRange("store", o.e.Addr&^3, 4)
		}
		if o.e.MemWidth > 0 {
			fills, wbs := h.DataFills, h.L1D.Writeback
			h.Data(o.e.Addr, o.e.Inst.IsStore())
			if h.DataFills != fills || h.L1D.Writeback != wbs {
				o.compare("L1D fill or writeback", o.e.Addr, cfg.L1D.LineBytes)
			}
		}
		o.rows++
	}
}

// compare checks the line of addr in the replay image against the
// reference memory.
func (o *lineOracle) compare(what string, addr uint32, line int) {
	o.lines++
	o.compareRange(what, addr&^uint32(line-1), line)
}

// compareRange checks n bytes from the word-aligned base in the replay
// image against the reference memory.
func (o *lineOracle) compareRange(what string, base uint32, n int) {
	if o.err != nil {
		return
	}
	for off := 0; off < n; off += 4 {
		a := base + uint32(off)
		if got, want := o.image.Load32(a), o.ref.Mem.Load32(a); got != want {
			o.err = fmt.Errorf("row %d (%s at %#x): replay image holds %#08x at %#x, reference %#08x",
				o.rows, what, base, got, a, want)
			return
		}
	}
}

// done reports the first divergence, or a replay that stopped short of the
// reference run.
func (o *lineOracle) done() error {
	if o.err != nil {
		return o.err
	}
	if !o.ref.Done {
		return fmt.Errorf("replay ended after %d rows, before the reference halted", o.rows)
	}
	if o.lines == 0 {
		return fmt.Errorf("no line moved in %d rows", o.rows)
	}
	return nil
}

// TestReplayMemoryOrderingOracle holds every memory-backed trace source to
// the line oracle over the suite (the small benchmarks under the race
// detector): a resident capture's first replay (miss stream built inline)
// and second (stream read back), a mapped SIGCAP02 file, and the streaming
// interpreter.
func TestReplayMemoryOrderingOracle(t *testing.T) {
	ctx := context.Background()
	rc := defaultRecoder(t)
	dir := t.TempDir()
	for _, name := range missStreamBenches(t) {
		b := mustBench(t, name)
		cp, err := trace.CaptureRun(ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		path, err := trace.WriteCaptureFile(dir, cp)
		if err != nil {
			t.Fatal(err)
		}
		mc, err := trace.OpenMappedCapture(path)
		if err != nil {
			t.Fatal(err)
		}
		sources := []struct {
			tier string
			run  func(image *mem.Memory, o *lineOracle) error
		}{
			{"resident cold", func(image *mem.Memory, o *lineOracle) error { return cp.ReplayBlocksOn(ctx, image, rc, o) }},
			{"resident warm", func(image *mem.Memory, o *lineOracle) error { return cp.ReplayBlocksOn(ctx, image, rc, o) }},
			{"mapped", func(image *mem.Memory, o *lineOracle) error { return mc.ReplayBlocksOn(ctx, image, rc, o) }},
			{"interpret", func(image *mem.Memory, o *lineOracle) error {
				c, err := b.NewCPU()
				if err != nil {
					return err
				}
				_, err = trace.Interpret(ctx, c, b.MaxInsts, image, rc, o)
				return err
			}},
		}
		for _, src := range sources {
			image, err := cp.NewMemory()
			if err != nil {
				t.Fatal(err)
			}
			o := newLineOracle(t, name, image)
			if err := src.run(image, o); err != nil {
				t.Fatalf("%s %s: %v", name, src.tier, err)
			}
			if err := o.done(); err != nil {
				t.Errorf("%s %s: %v", name, src.tier, err)
			}
		}
		mc.Close()
	}
}
