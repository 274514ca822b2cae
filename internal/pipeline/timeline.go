package pipeline

import (
	"fmt"
	"strings"

	"repro/internal/isa"
)

// Timeline records per-instruction stage entry times and renders the
// classic textbook pipeline diagram — the debugging view for understanding
// where a design's cycles go. Attach it to a model before simulation:
//
//	m := pipeline.NewByteSerial()
//	tl := pipeline.NewTimeline(m, 40)
//	... replay the trace into m ...
//	fmt.Print(tl.Render())
type Timeline struct {
	model *Model
	limit int
	rows  []timelineRow
}

type timelineRow struct {
	disasm string
	enter  []uint64
	occ    []int
	skip   []bool
}

// NewTimeline attaches a recorder for the first limit instructions.
func NewTimeline(m *Model, limit int) *Timeline {
	tl := &Timeline{model: m, limit: limit}
	m.observer = tl.observe
	return tl
}

func (tl *Timeline) observe(in isa.Inst, pc uint32, enter []uint64, occ []int, skip []bool) {
	if len(tl.rows) >= tl.limit {
		return
	}
	row := timelineRow{
		disasm: in.Disassemble(pc),
		enter:  append([]uint64(nil), enter...),
		occ:    append([]int(nil), occ...),
		skip:   append([]bool(nil), skip...),
	}
	tl.rows = append(tl.rows, row)
}

// Len reports how many instructions were recorded.
func (tl *Timeline) Len() int { return len(tl.rows) }

// Render draws the pipeline diagram: one row per instruction, one column
// per cycle, cells holding the stage mnemonic occupying that cycle
// (lower-cased beyond the first cycle of a multi-cycle occupancy).
func (tl *Timeline) Render() string {
	if len(tl.rows) == 0 {
		return "(no instructions recorded)\n"
	}
	names := tl.model.spec.stages
	first := tl.rows[0].enter[0]
	last := first
	for _, r := range tl.rows {
		end := r.enter[len(r.enter)-1] + uint64(r.occ[len(r.occ)-1])
		if end > last {
			last = end
		}
	}
	width := int(last - first)
	if width > 2000 {
		width = 2000 // sanity bound for pathological requests
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "%-28s cycle %d..%d (%s)\n", "instruction", first, last, tl.model.Name())
	for _, r := range tl.rows {
		cells := make([]string, width+1)
		for s := range names {
			if r.skip != nil && s < len(r.skip) && r.skip[s] {
				continue
			}
			for k := 0; k < r.occ[s]; k++ {
				idx := int(r.enter[s]-first) + k
				if idx < 0 || idx >= len(cells) {
					continue
				}
				label := names[s]
				if k > 0 {
					label = strings.ToLower(label)
				}
				if cells[idx] != "" {
					label = cells[idx] + "/" + label
				}
				cells[idx] = label
			}
		}
		d := r.disasm
		if len(d) > 26 {
			d = d[:26]
		}
		fmt.Fprintf(&sb, "%-28s", d)
		for _, c := range cells {
			if c == "" {
				c = "."
			}
			fmt.Fprintf(&sb, "%-4s", abbrev(c))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// abbrev shortens stage labels to at most three characters for the grid.
func abbrev(s string) string {
	if len(s) <= 3 {
		return s
	}
	return s[:3]
}
