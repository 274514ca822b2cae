package cpu

import (
	"testing"
	"unsafe"

	"repro/internal/isa"
	"repro/internal/mem"
)

// TestEveryValidWordHasHandler checks that Step has a case for exactly the
// words isa.Inst.Validate accepts, over every opcode, function code and
// REGIMM selector.
func TestEveryValidWordHasHandler(t *testing.T) {
	for op := uint32(0); op < 64; op++ {
		for low := uint32(0); low < 64; low++ {
			for rt := uint32(0); rt < 32; rt++ {
				in := isa.Decode(op<<26 | rt<<16 | low)
				valid := in.Validate() == nil
				if has := handlerOf(in) != hNone; has != valid {
					t.Fatalf("%#08x: valid %v, handler %v", in.Raw, valid, has)
				}
			}
		}
	}
}

// TestDecodeTableLazyAndBounded checks that a CPU that never steps has no
// decode table, and that the table stays within 64 KiB.
func TestDecodeTableLazyAndBounded(t *testing.T) {
	c := New(mem.NewMemory(), 0x0040_0000, 0x7fff_f000)
	if c.dec != nil {
		t.Fatal("decode table allocated before the first Step")
	}
	if size := unsafe.Sizeof(*c.dec); size > 64<<10 {
		t.Fatalf("decode table is %d bytes, above 64 KiB", size)
	}
	var e Exec
	if err := c.Step(&e); err != nil {
		t.Fatal(err)
	}
	if c.dec == nil {
		t.Fatal("no decode table after a Step")
	}
}
