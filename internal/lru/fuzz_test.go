package lru

import "testing"

var fuzzKeys = [...]string{"k0", "k1", "k2", "k3", "k4", "k5"}

// refEntry is one entry of the reference model: the serial id of the Add
// that stored it identifies each value, so every departure can be traced
// back to exactly one Add.
type refEntry struct {
	key   string
	id    int
	bytes int64
}

// refCache is a slice-based reference LRU: order[0] is the most recent
// entry, and the one eviction rule is written out directly.
type refCache struct {
	maxEntries int
	maxBytes   int64
	order      []refEntry
}

func (m *refCache) total() int64 {
	var n int64
	for _, e := range m.order {
		n += e.bytes
	}
	return n
}

func (m *refCache) find(key string) int {
	for i, e := range m.order {
		if e.key == key {
			return i
		}
	}
	return -1
}

// touch moves order[i] to the front.
func (m *refCache) touch(i int) {
	e := m.order[i]
	copy(m.order[1:i+1], m.order[:i])
	m.order[0] = e
}

func (m *refCache) evict() []refEntry {
	var out []refEntry
	for len(m.order) > 1 &&
		(m.maxEntries > 0 && len(m.order) > m.maxEntries || m.maxBytes > 0 && m.total() > m.maxBytes) {
		out = append(out, m.order[len(m.order)-1])
		m.order = m.order[:len(m.order)-1]
	}
	return out
}

func (m *refCache) add(e refEntry) (evicted []refEntry, displaced int) {
	displaced = -1
	if i := m.find(e.key); i >= 0 {
		displaced = m.order[i].id
		m.order[i] = e
		m.touch(i)
	} else {
		m.order = append([]refEntry{e}, m.order...)
	}
	return m.evict(), displaced
}

func (m *refCache) resize(key string, bytes int64) []refEntry {
	i := m.find(key)
	if i < 0 || m.order[i].bytes == bytes {
		return nil
	}
	m.order[i].bytes = bytes
	m.touch(i)
	return m.evict()
}

func (m *refCache) remove(key string) (refEntry, bool) {
	i := m.find(key)
	if i < 0 {
		return refEntry{}, false
	}
	e := m.order[i]
	m.order = append(m.order[:i], m.order[i+1:]...)
	return e, true
}

// FuzzCache decodes the input into bounds and a sequence of Add, Get,
// Peek, Resize and Remove calls over six keys, runs them on a Cache and on
// the reference model, and checks after every call that both agree on
// contents, recency order and evictions, that Bytes() is the sum of the
// resident sizes, that both bounds hold unless a single entry is resident,
// and at the end that every added value left exactly once or is resident.
func FuzzCache(f *testing.F) {
	f.Add([]byte{2, 0, 0, 5, 8, 5, 16, 5, 1, 0, 24, 5})
	f.Add([]byte{0, 40, 0, 20, 8, 20, 2, 40, 16, 30, 3, 0})
	f.Add([]byte{3, 50, 0, 10, 8, 10, 16, 10, 24, 31, 10, 2, 19, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		c := New[int](int(data[0]%5), int64(data[1]%64))
		m := &refCache{maxEntries: int(data[0] % 5), maxBytes: int64(data[1] % 64)}
		left := map[int]int{} // id -> times it left the cache
		added := 0

		leave := func(step int, got []Entry[int], want []refEntry) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("step %d: evicted %v, model %v", step, got, want)
			}
			for i, e := range got {
				w := want[i]
				if e.Key != w.key || e.Value != w.id || e.Bytes != w.bytes {
					t.Fatalf("step %d: evicted %+v, model %+v", step, e, w)
				}
				left[e.Value]++
			}
		}

		for step, p := 0, data[2:]; len(p) >= 2; step, p = step+1, p[2:] {
			key := fuzzKeys[(p[0]>>3)%6]
			size := int64(p[1] % 32)
			switch p[0] % 5 {
			case 0:
				id := added
				added++
				ev, displaced := c.Add(key, id, size)
				wantEv, wantDisp := m.add(refEntry{key, id, size})
				if wantDisp >= 0 {
					if displaced != wantDisp {
						t.Fatalf("step %d: add %s displaced %d, model %d", step, key, displaced, wantDisp)
					}
					left[displaced]++
				} else if displaced != 0 {
					t.Fatalf("step %d: add of new key %s displaced %d", step, key, displaced)
				}
				leave(step, ev, wantEv)
			case 1:
				v, ok := c.Get(key)
				i := m.find(key)
				if ok != (i >= 0) || ok && v != m.order[i].id {
					t.Fatalf("step %d: get %s = %d, %v", step, key, v, ok)
				}
				if ok {
					m.touch(i)
				}
			case 2:
				v, ok := c.Peek(key)
				i := m.find(key)
				if ok != (i >= 0) || ok && v != m.order[i].id {
					t.Fatalf("step %d: peek %s = %d, %v", step, key, v, ok)
				}
			case 3:
				leave(step, c.Resize(key, size), m.resize(key, size))
			case 4:
				e, ok := c.Remove(key)
				w, wok := m.remove(key)
				if ok != wok || ok && (e.Key != w.key || e.Value != w.id || e.Bytes != w.bytes) {
					t.Fatalf("step %d: remove %s = %+v, %v; model %+v, %v", step, key, e, ok, w, wok)
				}
				if ok {
					left[e.Value]++
				}
			}

			vals := c.Values()
			if len(vals) != len(m.order) || c.Len() != len(vals) {
				t.Fatalf("step %d: %d values, Len %d, model %d", step, len(vals), c.Len(), len(m.order))
			}
			for i, v := range vals {
				if v != m.order[i].id {
					t.Fatalf("step %d: recency %v, model %+v", step, vals, m.order)
				}
			}
			if c.Bytes() != m.total() {
				t.Fatalf("step %d: Bytes() = %d, resident sizes sum to %d", step, c.Bytes(), m.total())
			}
			if n := c.Len(); n > 1 {
				if max := int(data[0] % 5); max > 0 && n > max {
					t.Fatalf("step %d: %d entries over the bound %d", step, n, max)
				}
				if max := int64(data[1] % 64); max > 0 && c.Bytes() > max {
					t.Fatalf("step %d: %d bytes over the bound %d", step, c.Bytes(), max)
				}
			}
		}

		resident := map[int]bool{}
		for _, v := range c.Values() {
			resident[v] = true
		}
		for id := 0; id < added; id++ {
			if n := left[id]; n > 1 || n == 1 && resident[id] || n == 0 && !resident[id] {
				t.Fatalf("value %d left %d times, resident %v", id, n, resident[id])
			}
		}
	})
}
