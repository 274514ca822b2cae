package lru

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// Each row drives a cache whose values are their own keys through a
// sequence of operations and checks the resident keys (most recent first)
// and the evictions after every step.
func TestLRU(t *testing.T) {
	type op struct {
		kind  string // "add", "get", "resize" or "remove"
		key   string
		bytes int64

		evicted []string // keys evicted by this step
		want    []string // resident keys afterwards, most recent first
	}
	cases := []struct {
		name       string
		maxEntries int
		maxBytes   int64
		ops        []op
	}{
		{"Eviction", 2, 0, []op{
			{kind: "add", key: "a", want: []string{"a"}},
			{kind: "add", key: "b", want: []string{"b", "a"}},
			// Touch a so b becomes the LRU victim.
			{kind: "get", key: "a", want: []string{"a", "b"}},
			{kind: "add", key: "c", evicted: []string{"b"}, want: []string{"c", "a"}},
			{kind: "get", key: "b", want: []string{"c", "a"}},
		}},
		{"Overwrite", 2, 0, []op{
			{kind: "add", key: "a", want: []string{"a"}},
			{kind: "add", key: "b", want: []string{"b", "a"}},
			{kind: "add", key: "a", want: []string{"a", "b"}},
		}},
		{"ByteBudget", 0, 100, []op{
			{kind: "add", key: "a", bytes: 40, want: []string{"a"}},
			{kind: "add", key: "b", bytes: 40, want: []string{"b", "a"}},
			{kind: "add", key: "c", bytes: 40, evicted: []string{"a"}, want: []string{"c", "b"}},
			// An exact fit evicts everything else.
			{kind: "add", key: "d", bytes: 100, evicted: []string{"b", "c"}, want: []string{"d"}},
			// The newest entry stays even when it alone exceeds the budget.
			{kind: "add", key: "e", bytes: 150, evicted: []string{"d"}, want: []string{"e"}},
		}},
		{"EitherBound", 3, 100, []op{
			{kind: "add", key: "a", bytes: 10, want: []string{"a"}},
			{kind: "add", key: "b", bytes: 10, want: []string{"b", "a"}},
			{kind: "add", key: "c", bytes: 10, want: []string{"c", "b", "a"}},
			{kind: "add", key: "d", bytes: 10, evicted: []string{"a"}, want: []string{"d", "c", "b"}},
			{kind: "add", key: "e", bytes: 85, evicted: []string{"b", "c"}, want: []string{"e", "d"}},
		}},
		{"Resize", 0, 100, []op{
			{kind: "add", key: "a", bytes: 30, want: []string{"a"}},
			{kind: "add", key: "b", bytes: 30, want: []string{"b", "a"}},
			// An unchanged size leaves recency alone.
			{kind: "resize", key: "a", bytes: 30, want: []string{"b", "a"}},
			// Growth within budget refreshes recency, evicts nothing.
			{kind: "resize", key: "a", bytes: 60, want: []string{"a", "b"}},
			// Growth past the budget evicts the others, never the grown entry.
			{kind: "resize", key: "a", bytes: 120, evicted: []string{"b"}, want: []string{"a"}},
			{kind: "resize", key: "zz", bytes: 5, want: []string{"a"}},
		}},
		{"Remove", 0, 0, []op{
			{kind: "add", key: "a", bytes: 7, want: []string{"a"}},
			{kind: "add", key: "b", bytes: 9, want: []string{"b", "a"}},
			{kind: "remove", key: "b", want: []string{"a"}},
			{kind: "remove", key: "b", want: []string{"a"}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New[string](tc.maxEntries, tc.maxBytes)
			sizes := map[string]int64{}
			for i, o := range tc.ops {
				var evicted []Entry[string]
				switch o.kind {
				case "add":
					var displaced string
					evicted, displaced = c.Add(o.key, o.key, o.bytes)
					if _, was := sizes[o.key]; was != (displaced == o.key) {
						t.Fatalf("step %d: add %s displaced %q", i, o.key, displaced)
					}
					sizes[o.key] = o.bytes
				case "get":
					v, ok := c.Get(o.key)
					if _, want := sizes[o.key]; ok != want || ok && v != o.key {
						t.Fatalf("step %d: get %s = %q, %v", i, o.key, v, ok)
					}
				case "resize":
					evicted = c.Resize(o.key, o.bytes)
					if _, ok := sizes[o.key]; ok {
						sizes[o.key] = o.bytes
					}
				case "remove":
					e, ok := c.Remove(o.key)
					if _, want := sizes[o.key]; ok != want || ok && (e.Key != o.key || e.Bytes != sizes[o.key]) {
						t.Fatalf("step %d: remove %s = %+v, %v", i, o.key, e, ok)
					}
					delete(sizes, o.key)
				}
				var gotEv []string
				for _, e := range evicted {
					if e.Value != e.Key || e.Bytes != sizes[e.Key] {
						t.Fatalf("step %d: evicted entry %+v, accounted %d", i, e, sizes[e.Key])
					}
					gotEv = append(gotEv, e.Key)
					delete(sizes, e.Key)
				}
				if !reflect.DeepEqual(gotEv, o.evicted) {
					t.Fatalf("step %d (%s %s): evicted %v, want %v", i, o.kind, o.key, gotEv, o.evicted)
				}
				if got := c.Values(); !reflect.DeepEqual(got, o.want) {
					t.Fatalf("step %d (%s %s): resident %v, want %v", i, o.kind, o.key, got, o.want)
				}
				var sum int64
				for _, n := range sizes {
					sum += n
				}
				if c.Bytes() != sum || c.Len() != len(o.want) {
					t.Fatalf("step %d: %d entries / %d bytes, want %d / %d", i, c.Len(), c.Bytes(), len(o.want), sum)
				}
			}
		})
	}
}

// Peek reads without refreshing recency.
func TestPeek(t *testing.T) {
	c := New[string](2, 0)
	c.Add("a", "A", 0)
	c.Add("b", "B", 0)
	if v, ok := c.Peek("a"); !ok || v != "A" {
		t.Fatalf("peek a = %q, %v", v, ok)
	}
	if ev, _ := c.Add("c", "C", 0); len(ev) != 1 || ev[0].Key != "a" {
		t.Fatalf("evicted %v, want [a]: peek must not refresh recency", ev)
	}
	if _, ok := c.Peek("a"); ok {
		t.Fatal("peek found an evicted key")
	}
}

func TestLRUConcurrent(t *testing.T) {
	c := New[string](8, 0)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				k := fmt.Sprintf("k%d", (i+j)%12)
				c.Add(k, k, 1)
				if v, ok := c.Get(k); ok && v != k {
					t.Errorf("key %s returned %s", k, v)
				}
				c.Resize(k, int64(1+j%3))
			}
		}(i)
	}
	wg.Wait()
	if c.Len() > 8 {
		t.Fatalf("len = %d exceeds capacity", c.Len())
	}
	if n := int64(c.Len()); c.Bytes() < n || c.Bytes() > 3*n {
		t.Fatalf("accounted %d bytes for %d entries of 1-3 bytes", c.Bytes(), n)
	}
}

// The no-eviction paths are on every request of the result cache, so they
// must not allocate.
func TestCacheAllocFree(t *testing.T) {
	c := New[*int](4, 1000)
	v := new(int)
	c.Add("a", v, 10)
	c.Add("b", v, 10)
	size := int64(10)
	for name, fn := range map[string]func(){
		"Get":          func() { c.Get("a") },
		"Peek":         func() { c.Peek("b") },
		"same-key Add": func() { c.Add("a", v, 10) },
		"Resize": func() {
			size = 30 - size // alternate 10 and 20, within budget
			c.Resize("b", size)
		},
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s: %.1f allocs per call, want 0", name, n)
		}
	}
}
