// Package lru holds the one bounded cache and the one singleflight that the
// service layers share: the simsvc result and trace caches, the workload
// registry and the gateway's replica store keep their entries in a Cache,
// and every deduplicated fill goes through a Group. Neither runs caller
// code under its lock: evictions come back as values, so spilling,
// unmapping and quota bookkeeping happen at the call site.
package lru

import (
	"container/list"
	"sync"
)

// Entry is one cached value with its key and accounted size.
type Entry[V any] struct {
	Key   string
	Value V
	Bytes int64
}

// Cache is a string-keyed least-recently-used cache bounded by entry count
// and by accounted bytes; a zero bound leaves that axis unbounded. It is
// safe for concurrent use.
//
// The one eviction rule: after an Add or a Resize, entries are dropped from
// the least-recently-used end while either bound is exceeded, but the most
// recent entry is never dropped. A single entry over the byte bound thus
// stays resident alone; a caller that must refuse or drop it does so itself.
type Cache[V any] struct {
	maxEntries int
	maxBytes   int64

	mu    sync.Mutex
	bytes int64
	order *list.List // front = most recent; values are *Entry[V]
	items map[string]*list.Element
}

// New returns an empty cache bounded by maxEntries and maxBytes.
func New[V any](maxEntries int, maxBytes int64) *Cache[V] {
	return &Cache[V]{maxEntries: maxEntries, maxBytes: maxBytes, order: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the value cached under key and marks it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) { return c.lookup(key, true) }

// Peek returns the value cached under key without touching its recency.
func (c *Cache[V]) Peek(key string) (V, bool) { return c.lookup(key, false) }

func (c *Cache[V]) lookup(key string, touch bool) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return v, false
	}
	if touch {
		c.order.MoveToFront(el)
	}
	return el.Value.(*Entry[V]).Value, true
}

// Add stores v under key at an accounted size of bytes, marks it most
// recently used and evicts past the bounds. It returns the evicted entries
// and, when key was already cached, the value v displaced (else the zero V).
func (c *Cache[V]) Add(key string, v V, bytes int64) (evicted []Entry[V], displaced V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*Entry[V])
		displaced = e.Value
		c.bytes += bytes - e.Bytes
		e.Value, e.Bytes = v, bytes
		c.order.MoveToFront(el)
	} else {
		c.items[key] = c.order.PushFront(&Entry[V]{Key: key, Value: v, Bytes: bytes})
		c.bytes += bytes
	}
	return c.evict(), displaced
}

// Resize re-accounts key's entry at bytes, for a value that changed size
// after it was added. A resized entry becomes most recently used and the
// bounds are enforced again; the evicted entries are returned. An absent
// key or an unchanged size is a no-op.
func (c *Cache[V]) Resize(key string, bytes int64) []Entry[V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil
	}
	e := el.Value.(*Entry[V])
	if e.Bytes == bytes {
		return nil
	}
	c.bytes += bytes - e.Bytes
	e.Bytes = bytes
	c.order.MoveToFront(el)
	return c.evict()
}

// Remove drops key's entry and returns it.
func (c *Cache[V]) Remove(key string) (Entry[V], bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		return c.unlink(el), true
	}
	return Entry[V]{}, false
}

// evict applies the eviction rule. Caller holds mu.
func (c *Cache[V]) evict() (evicted []Entry[V]) {
	for n := c.order.Len(); n > 1 && (c.maxEntries > 0 && n > c.maxEntries || c.maxBytes > 0 && c.bytes > c.maxBytes); n-- {
		evicted = append(evicted, c.unlink(c.order.Back()))
	}
	return evicted
}

// unlink removes el from the cache. Caller holds mu.
func (c *Cache[V]) unlink(el *list.Element) Entry[V] {
	e := c.order.Remove(el).(*Entry[V])
	delete(c.items, e.Key)
	c.bytes -= e.Bytes
	return *e
}

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Bytes returns the accounted size of all cached entries.
func (c *Cache[V]) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Values returns the cached values, most recently used first.
func (c *Cache[V]) Values() []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]V, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*Entry[V]).Value)
	}
	return out
}
