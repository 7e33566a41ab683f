package cpu

import (
	"math/rand"
	"testing"

	"hams/internal/mem"
)

// refCache is a set-associative cache kept as nested per-set slices,
// indexed by division: the layout Cache's flat, shift-and-mask one
// must match lookup for lookup.
type refCache struct {
	lineBytes, nsets uint64
	sets             [][]line
	tick             uint64
	hits, misses     int64
}

func newRefCache(cfg CacheConfig) *refCache {
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
	sets := make([][]line, nsets)
	for i := range sets {
		sets[i] = make([]line, cfg.Ways)
	}
	return &refCache{lineBytes: cfg.LineBytes, nsets: nsets, sets: sets}
}

func (c *refCache) lookup(addr uint64, write bool) (hit bool, victim uint64, victimDirty bool) {
	c.tick++
	lineAddr := addr / c.lineBytes
	set := lineAddr % c.nsets
	tag := lineAddr / c.nsets
	ways := c.sets[set]
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
		victim = (v.tag*c.nsets + set) * c.lineBytes
		victimDirty = true
	}
	ways[vi] = line{tag: tag, valid: true, dirty: write, lru: c.tick}
	return false, victim, victimDirty
}

type namedCache struct {
	name string
	cfg  CacheConfig
}

// cacheGeometries are the caches the simulator builds (Table II L1 and
// L2, the default TLB over 4 KiB pages and over a 128 KiB HAMS page)
// plus a 2-set toy that evicts on nearly every miss.
func cacheGeometries() []namedCache {
	tlb := DefaultTLB()
	tlbOver := func(page uint64) CacheConfig {
		return CacheConfig{SizeBytes: uint64(tlb.Entries) * page, Ways: tlb.Ways, LineBytes: page}
	}
	return []namedCache{
		{"L1", L1D64K()},
		{"L2", L2_2M()},
		{"TLB-4K", tlbOver(4 * mem.KiB)},
		{"TLB-128K", tlbOver(128 * mem.KiB)},
		{"toy", CacheConfig{SizeBytes: 256, Ways: 2, LineBytes: 64}},
	}
}

// TestCacheMatchesReference drives Cache and the nested-slice reference
// with one seeded stream of reads and writes per geometry: a hot range
// inside the cache's capacity, a cold range four times it, and
// arbitrary 64-bit addresses (tags with high bits set). Every lookup
// must give the same (hit, victim, victimDirty), and the hit and miss
// counters must agree throughout.
func TestCacheMatchesReference(t *testing.T) {
	for gi, g := range cacheGeometries() {
		cfg := g.cfg
		t.Run(g.name, func(t *testing.T) {
			c, ref := NewCache(cfg), newRefCache(cfg)
			rng := rand.New(rand.NewSource(int64(gi) + 1))
			var hits, dirtyVictims int
			for i := 0; i < 200_000; i++ {
				var addr uint64
				switch r := rng.Intn(10); {
				case r < 6:
					addr = rng.Uint64() % (cfg.SizeBytes / 2)
				case r < 9:
					addr = rng.Uint64() % (4 * cfg.SizeBytes)
				default:
					addr = rng.Uint64()
				}
				write := rng.Intn(3) == 0
				hit, victim, dirty := c.Lookup(addr, write)
				rhit, rvictim, rdirty := ref.lookup(addr, write)
				if hit != rhit || victim != rvictim || dirty != rdirty {
					t.Fatalf("lookup %d of %#x (write %v) = (%v, %#x, %v), reference (%v, %#x, %v)",
						i, addr, write, hit, victim, dirty, rhit, rvictim, rdirty)
				}
				if c.Hits() != ref.hits || c.Misses() != ref.misses {
					t.Fatalf("lookup %d: hits/misses %d/%d, reference %d/%d", i, c.Hits(), c.Misses(), ref.hits, ref.misses)
				}
				if hit {
					hits++
				}
				if dirty {
					dirtyVictims++
				}
			}
			if hits == 0 || dirtyVictims == 0 {
				t.Fatalf("stream too weak: %d hits, %d dirty victims", hits, dirtyVictims)
			}
		})
	}
}

// TestNewCacheRejectsNonPowerOfTwo: shift-and-mask indexing needs a
// power-of-two line size and set count.
func TestNewCacheRejectsNonPowerOfTwo(t *testing.T) {
	for _, g := range []namedCache{
		{"line", CacheConfig{SizeBytes: 96 * 4, Ways: 1, LineBytes: 96}},
		{"sets", CacheConfig{SizeBytes: 64 * 3, Ways: 1, LineBytes: 64}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewCache(%+v) did not panic", g.name, g.cfg)
				}
			}()
			NewCache(g.cfg)
		}()
	}
}

// BenchmarkCacheLookup measures one lookup in the Table II L1 and L2
// and the default TLB, over a fixed random stream of reads and writes
// spanning twice the cache's capacity. The stream holds more distinct
// lines than any of these caches, so it hits and misses in each.
func BenchmarkCacheLookup(b *testing.B) {
	for _, g := range cacheGeometries()[:3] {
		b.Run(g.name, func(b *testing.B) {
			c := NewCache(g.cfg)
			rng := rand.New(rand.NewSource(1))
			addrs := make([]uint64, 1<<16)
			for i := range addrs {
				addrs[i] = rng.Uint64() % (2 * g.cfg.SizeBytes)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Lookup(addrs[i&(len(addrs)-1)], i&3 == 0)
			}
		})
	}
}
