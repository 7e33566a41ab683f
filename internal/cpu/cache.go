// Package cpu models the processor side of the evaluation platform
// (Table II): quad-core 2 GHz cores with 64 KB L1D and a shared 2 MB
// L2, a base CPI for non-memory instructions, and a driver that
// interleaves the cores against a shared memory system in global time
// order. The cache hierarchy filters the workload's access stream so
// only true misses reach the platform under test, exactly as gem5 did
// for the paper.
package cpu

import (
	"fmt"

	"hams/internal/mem"
)

// CacheConfig sizes one level.
type CacheConfig struct {
	SizeBytes uint64
	Ways      int
	LineBytes uint64
}

// L1D64K is the Table II L1 data cache.
func L1D64K() CacheConfig { return CacheConfig{SizeBytes: 64 * mem.KiB, Ways: 4, LineBytes: 64} }

// L2_2M is the Table II shared L2.
func L2_2M() CacheConfig { return CacheConfig{SizeBytes: 2 * mem.MiB, Ways: 8, LineBytes: 64} }

type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64
}

// Cache is a set-associative write-back, write-allocate cache. Its
// lines live in one set-major array (set s holds lines[s*ways:]), and
// an address splits into set and tag by shift and mask.
type Cache struct {
	cfg       CacheConfig
	lines     []line
	lineShift uint
	setShift  uint
	setMask   uint64
	tick      uint64

	hits, misses int64
}

// NewCache builds a cache from cfg. The line size and the set count
// must be powers of two: every cache the simulator builds meets that
// (the Table II L1 and L2, and a TLB over 4 KiB or a HAMS page, whose
// size core.New already requires to be a power of two), so anything
// else is a bug and panics.
func NewCache(cfg CacheConfig) *Cache {
	if cfg.Ways <= 0 {
		cfg.Ways = 1
	}
	if cfg.LineBytes == 0 {
		cfg.LineBytes = 64
	}
	nsets := cfg.SizeBytes / cfg.LineBytes / uint64(cfg.Ways)
	if nsets == 0 {
		nsets = 1
	}
	if !mem.IsPow2(cfg.LineBytes) || !mem.IsPow2(nsets) {
		panic(fmt.Sprintf("cpu: cache of %d-byte lines in %d sets: both must be powers of two", cfg.LineBytes, nsets))
	}
	return &Cache{
		cfg:       cfg,
		lines:     make([]line, nsets*uint64(cfg.Ways)),
		lineShift: mem.Log2(cfg.LineBytes),
		setShift:  mem.Log2(nsets),
		setMask:   nsets - 1,
	}
}

// LineBytes returns the line size.
func (c *Cache) LineBytes() uint64 { return c.cfg.LineBytes }

// Hits and Misses report counters.
func (c *Cache) Hits() int64   { return c.hits }
func (c *Cache) Misses() int64 { return c.misses }

// Lookup accesses the line containing addr. On a miss it installs the
// line and returns the evicted dirty victim's address (ok=false when
// nothing dirty was displaced).
func (c *Cache) Lookup(addr uint64, write bool) (hit bool, victim uint64, victimDirty bool) {
	c.tick++
	lineAddr := addr >> c.lineShift
	set := lineAddr & c.setMask
	tag := lineAddr >> c.setShift
	first := int(set) * c.cfg.Ways
	ways := c.lines[first : first+c.cfg.Ways]
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			c.hits++
			ways[i].lru = c.tick
			if write {
				ways[i].dirty = true
			}
			return true, 0, false
		}
	}
	c.misses++
	// Choose victim: first invalid, else least recently used.
	vi := 0
	for i := range ways {
		if !ways[i].valid {
			vi = i
			break
		}
		if ways[i].lru < ways[vi].lru {
			vi = i
		}
	}
	v := ways[vi]
	if v.valid && v.dirty {
		victim = (v.tag<<c.setShift | set) << c.lineShift
		victimDirty = true
	}
	ways[vi] = line{tag: tag, valid: true, dirty: write, lru: c.tick}
	return false, victim, victimDirty
}
