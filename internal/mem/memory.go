// Package mem provides the memory-system substrates the simulator depends
// on: a sparse flat memory for the functional interpreter, and
// set-associative cache and TLB timing models configured to the paper's
// hierarchy (§3).
package mem

import (
	"encoding/binary"
	"fmt"
)

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// Memory is a sparse, page-granular byte-addressable memory. Reads of
// untouched locations return zero, matching a zero-initialized address
// space. All multi-byte accesses are little-endian (the simulator's MIPS is
// little-endian, as SimpleScalar PISA on x86 hosts was).
type Memory struct {
	pages map[uint32][]byte
}

// NewMemory returns an empty address space.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint32][]byte)}
}

func (m *Memory) page(addr uint32, create bool) []byte {
	pn := addr >> pageShift
	p := m.pages[pn]
	if p == nil && create {
		p = make([]byte, pageSize)
		m.pages[pn] = p
	}
	return p
}

// Load8 returns the byte at addr.
func (m *Memory) Load8(addr uint32) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// Store8 stores one byte at addr.
func (m *Memory) Store8(addr uint32, v byte) {
	m.page(addr, true)[addr&pageMask] = v
}

// Load16 returns the little-endian 16-bit value at addr.
func (m *Memory) Load16(addr uint32) uint16 {
	if addr&pageMask <= pageSize-2 {
		if p := m.page(addr, false); p != nil {
			return binary.LittleEndian.Uint16(p[addr&pageMask:])
		}
		return 0
	}
	return uint16(m.Load8(addr)) | uint16(m.Load8(addr+1))<<8
}

// Store16 stores a little-endian 16-bit value at addr.
func (m *Memory) Store16(addr uint32, v uint16) {
	if addr&pageMask <= pageSize-2 {
		binary.LittleEndian.PutUint16(m.page(addr, true)[addr&pageMask:], v)
		return
	}
	m.Store8(addr, byte(v))
	m.Store8(addr+1, byte(v>>8))
}

// Load32 returns the little-endian 32-bit value at addr.
func (m *Memory) Load32(addr uint32) uint32 {
	if addr&pageMask <= pageSize-4 {
		if p := m.page(addr, false); p != nil {
			return binary.LittleEndian.Uint32(p[addr&pageMask:])
		}
		return 0
	}
	return uint32(m.Load16(addr)) | uint32(m.Load16(addr+2))<<16
}

// Store32 stores a little-endian 32-bit value at addr.
func (m *Memory) Store32(addr uint32, v uint32) {
	if addr&pageMask <= pageSize-4 {
		binary.LittleEndian.PutUint32(m.page(addr, true)[addr&pageMask:], v)
		return
	}
	m.Store16(addr, uint16(v))
	m.Store16(addr+2, uint16(v>>16))
}

// LoadSegment copies data into memory starting at base.
func (m *Memory) LoadSegment(base uint32, data []byte) {
	for i, b := range data {
		m.Store8(base+uint32(i), b)
	}
}

// Footprint reports the number of distinct pages touched.
func (m *Memory) Footprint() int { return len(m.pages) }

// CacheConfig describes one cache or TLB array.
type CacheConfig struct {
	Name      string
	Size      int // total bytes (caches) or entries*PageBytes (TLBs use Sets/Assoc directly)
	LineBytes int
	Assoc     int // 1 = direct mapped
}

// Validate reports configuration errors.
func (c CacheConfig) Validate() error {
	if c.Size <= 0 || c.LineBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("mem: %s: non-positive geometry %+v", c.Name, c)
	}
	if c.Size%(c.LineBytes*c.Assoc) != 0 {
		return fmt.Errorf("mem: %s: size %d not divisible by line*assoc", c.Name, c.Size)
	}
	sets := c.Size / (c.LineBytes * c.Assoc)
	if sets&(sets-1) != 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("mem: %s: sets (%d) and line size (%d) must be powers of two", c.Name, sets, c.LineBytes)
	}
	return nil
}

type cacheLine struct {
	tag   uint32
	valid bool
	dirty bool
	lru   uint64 // last-use stamp
}

// Cache is a set-associative, write-back, write-allocate cache with true-LRU
// replacement. It models hit/miss behaviour and statistics only; data
// contents live in Memory.
type Cache struct {
	cfg       CacheConfig
	sets      [][]cacheLine
	setShift  uint
	setMask   uint32
	tagShift  uint // setShift + log2(len(sets))
	stamp     uint64
	Accesses  uint64
	Misses    uint64
	Writeback uint64
}

// NewCache builds a cache from cfg; the configuration must be valid.
func NewCache(cfg CacheConfig) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.Size / (cfg.LineBytes * cfg.Assoc)
	c := &Cache{cfg: cfg}
	c.sets = make([][]cacheLine, nsets)
	lines := make([]cacheLine, nsets*cfg.Assoc)
	for i := range c.sets {
		c.sets[i], lines = lines[:cfg.Assoc], lines[cfg.Assoc:]
	}
	for c.setShift = 0; 1<<c.setShift < cfg.LineBytes; c.setShift++ {
	}
	c.setMask = uint32(nsets - 1)
	c.tagShift = c.setShift + log2(uint32(nsets))
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// AccessResult describes the outcome of one cache access.
type AccessResult struct {
	Hit         bool
	Writeback   bool // a dirty victim was evicted
	FillAddress uint32
}

// Access looks up addr, allocating on miss. write marks the line dirty.
func (c *Cache) Access(addr uint32, write bool) AccessResult {
	c.Accesses++
	c.stamp++
	set := c.sets[(addr>>c.setShift)&c.setMask]
	tag := addr >> c.tagShift
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.stamp
			if write {
				set[i].dirty = true
			}
			return AccessResult{Hit: true}
		}
	}
	// Miss: evict LRU way.
	c.Misses++
	victim := 0
	for i := 1; i < len(set); i++ {
		if !set[victim].valid {
			break // keep the free way
		}
		if !set[i].valid || set[i].lru < set[victim].lru {
			victim = i
		}
	}
	res := AccessResult{FillAddress: addr &^ uint32(c.cfg.LineBytes-1)}
	if set[victim].valid && set[victim].dirty {
		res.Writeback = true
		c.Writeback++
	}
	set[victim] = cacheLine{tag: tag, valid: true, dirty: write, lru: c.stamp}
	return res
}

// MissRate returns misses/accesses (0 when idle).
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	for _, set := range c.sets {
		for i := range set {
			set[i] = cacheLine{}
		}
	}
	c.stamp, c.Accesses, c.Misses, c.Writeback = 0, 0, 0, 0
}

func log2(v uint32) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// TLB is a set-associative translation lookaside buffer over 4 KiB pages.
type TLB struct {
	cache *Cache
}

// NewTLB builds a TLB with the given entry count and associativity.
func NewTLB(name string, entries, assoc int) *TLB {
	// Reuse the cache machinery: one "line" per page.
	return &TLB{cache: NewCache(CacheConfig{
		Name:      name,
		Size:      entries * pageSize,
		LineBytes: pageSize,
		Assoc:     assoc,
	})}
}

// Lookup returns true on a TLB hit for the page containing addr.
func (t *TLB) Lookup(addr uint32) bool { return t.cache.Access(addr, false).Hit }

// Accesses returns the total lookups performed.
func (t *TLB) Accesses() uint64 { return t.cache.Accesses }

// Misses returns the lookups that missed.
func (t *TLB) Misses() uint64 { return t.cache.Misses }

// Reset clears contents and statistics.
func (t *TLB) Reset() { t.cache.Reset() }
