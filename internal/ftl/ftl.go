// Package ftl implements a page-level flash translation layer: LBA to
// PPN mapping, round-robin plane striping for write allocation, greedy
// garbage collection with over-provisioning, and wear/WAF accounting.
// Functional page data flows through the FTL into the flash array, so
// reads return exactly the bytes written — the property the HAMS
// persistency experiments rely on.
package ftl

import (
	"errors"
	"fmt"

	"hams/internal/flash"
	"hams/internal/sim"
)

// Config tunes the FTL.
type Config struct {
	// OPBlocksPerPlane is the per-plane reserve kept out of the
	// exported capacity so GC always has destination space.
	OPBlocksPerPlane int
	// GCLowWater triggers GC when a plane's free-block count drops to
	// this value.
	GCLowWater int
}

// DefaultConfig returns a 2-block reserve / low-water of 1.
func DefaultConfig() Config { return Config{OPBlocksPerPlane: 2, GCLowWater: 2} }

// ErrFull is returned when no garbage can be collected (every mapped
// page valid) and the device has no free pages left.
var ErrFull = errors.New("ftl: device full")

type activeBlock struct {
	block    int // -1 when none
	nextPage int
}

// Stats carries FTL activity counters.
type Stats struct {
	HostReads    int64
	HostWrites   int64
	GCWrites     int64 // relocations
	GCRuns       int64
	Erases       int64
	UnmappedRead int64
}

// idxMap is a chunked radix table from a page-number key to a uint64
// value. It replaces the l2p/p2l maps: a lookup is two slice loads,
// and only the 2 KiB chunks a workload actually touches are
// materialized (the key spaces — exported LBAs and physical pages —
// are hundreds of millions of entries, almost all of them cold).
type idxMap struct {
	chunks [][]uint64
}

const (
	idxChunkBits = 8
	idxChunkSize = 1 << idxChunkBits
	idxChunkMask = idxChunkSize - 1
	idxNone      = ^uint64(0)
)

func (m *idxMap) get(k uint64) (uint64, bool) {
	ci := k >> idxChunkBits
	if ci >= uint64(len(m.chunks)) || m.chunks[ci] == nil {
		return 0, false
	}
	v := m.chunks[ci][k&idxChunkMask]
	return v, v != idxNone
}

func (m *idxMap) set(k, v uint64) {
	ci := k >> idxChunkBits
	for uint64(len(m.chunks)) <= ci {
		m.chunks = append(m.chunks, nil)
	}
	if m.chunks[ci] == nil {
		c := make([]uint64, idxChunkSize)
		for i := range c {
			c[i] = idxNone
		}
		m.chunks[ci] = c
	}
	m.chunks[ci][k&idxChunkMask] = v
}

func (m *idxMap) del(k uint64) {
	ci := k >> idxChunkBits
	if ci < uint64(len(m.chunks)) && m.chunks[ci] != nil {
		m.chunks[ci][k&idxChunkMask] = idxNone
	}
}

// FTL is the translation layer over one flash array.
type FTL struct {
	arr *flash.Array
	geo flash.Geometry
	cfg Config

	l2p idxMap // lba -> ppn
	p2l idxMap // ppn -> lba

	// The free-block bookkeeping reproduces the order of the seed's
	// explicit per-plane free lists ([0..N-1] popped from the front,
	// erased blocks appended at the back) without materializing them:
	// virgin blocks are a counter and recycled blocks a FIFO. valid
	// covers only the blocks a plane has allocated so far (it grows by
	// one per virgin block popFree hands out), so host memory follows
	// allocation rather than the geometry's block count.
	virginNext []int     // per plane: first never-allocated block
	recycled   [][]int   // per plane: erased blocks, FIFO order
	valid      [][]int32 // per plane, block < virginNext: valid pages, or freeBlock
	active     []activeBlock
	planeRR    int // round-robin allocation cursor

	gcBuf []byte // relocation scratch (one page)

	stats Stats
}

// freeBlock marks a recycled (erased, unallocated) block in valid.
const freeBlock = -1

// New wraps arr with a translation layer.
func New(arr *flash.Array, cfg Config) *FTL {
	g := arr.Geo
	f := &FTL{
		arr:        arr,
		geo:        g,
		cfg:        cfg,
		virginNext: make([]int, g.Planes()),
		recycled:   make([][]int, g.Planes()),
		valid:      make([][]int32, g.Planes()),
		active:     make([]activeBlock, g.Planes()),
		gcBuf:      make([]byte, g.PageBytes),
	}
	for p := range f.active {
		f.active[p] = activeBlock{block: -1}
	}
	return f
}

// PageBytes returns the mapping granularity.
func (f *FTL) PageBytes() uint64 { return f.geo.PageBytes }

// ExportedPages returns the logical capacity in pages (raw minus OP).
func (f *FTL) ExportedPages() uint64 {
	op := uint64(f.cfg.OPBlocksPerPlane * f.geo.Planes() * f.geo.PagesPerBlk)
	return f.geo.TotalPages() - op
}

// Stats returns a copy of the counters.
func (f *FTL) Stats() Stats { return f.stats }

// WAF returns the write amplification factor observed so far.
func (f *FTL) WAF() float64 {
	if f.stats.HostWrites == 0 {
		return 1
	}
	return float64(f.stats.HostWrites+f.stats.GCWrites) / float64(f.stats.HostWrites)
}

// Mapped reports whether lba has been written.
func (f *FTL) Mapped(lba uint64) bool {
	_, ok := f.l2p.get(lba)
	return ok
}

// planeCoords returns the Addr template for a global plane index.
func (f *FTL) planeCoords(plane int) flash.Addr {
	g := f.geo
	pln := plane % g.PlanesPerDie
	rest := plane / g.PlanesPerDie
	die := rest % g.DiesPerPkg
	rest /= g.DiesPerPkg
	pkg := rest % g.PackagesPerC
	ch := rest / g.PackagesPerC
	return flash.Addr{Channel: ch, Package: pkg, Die: die, Plane: pln}
}

// planeOf returns the global plane index of a physical address.
func (f *FTL) planeOf(ad flash.Addr) int {
	return f.geo.GlobalDie(ad)*f.geo.PlanesPerDie + ad.Plane
}

// freeCount returns the plane's free-block count (virgin + recycled).
func (f *FTL) freeCount(plane int) int {
	return (f.geo.BlocksPerPln - f.virginNext[plane]) + len(f.recycled[plane])
}

// popFree pulls the next free block in the plane, in the same order
// the seed's explicit list produced: virgin blocks 0..N-1 first, then
// recycled blocks in erase order.
func (f *FTL) popFree(plane int) (int, bool) {
	if b := f.virginNext[plane]; b < f.geo.BlocksPerPln {
		f.virginNext[plane]++
		f.valid[plane] = append(f.valid[plane], 0)
		return b, true
	}
	r := f.recycled[plane]
	if len(r) == 0 {
		return 0, false
	}
	b := r[0]
	f.recycled[plane] = r[1:]
	f.valid[plane][b] = 0
	return b, true
}

// allocate returns the next PPN to program in the given plane, pulling
// a fresh block when the active one fills. Returns false if the plane
// has no free block and no active space.
func (f *FTL) allocate(plane int) (flash.PPN, bool) {
	ab := &f.active[plane]
	if ab.block == -1 || ab.nextPage >= f.geo.PagesPerBlk {
		b, ok := f.popFree(plane)
		if !ok {
			return 0, false
		}
		ab.block = b
		ab.nextPage = 0
	}
	ad := f.planeCoords(plane)
	ad.Block = ab.block
	ad.Page = ab.nextPage
	ab.nextPage++
	return f.geo.Compose(ad), true
}

// mapPage points lba at the freshly programmed ppn.
func (f *FTL) mapPage(lba uint64, p flash.PPN) {
	f.l2p.set(lba, uint64(p))
	f.p2l.set(uint64(p), lba)
	ad := f.geo.Decompose(p)
	f.valid[f.planeOf(ad)][ad.Block]++
}

// invalidate drops the reverse mapping of an old PPN (overwrite, trim
// or GC relocation) and lets the array free its payload.
func (f *FTL) invalidate(p flash.PPN) {
	f.p2l.del(uint64(p))
	ad := f.geo.Decompose(p)
	f.valid[f.planeOf(ad)][ad.Block]--
	f.arr.Discard(p)
}

// Write stores data (one logical page) at lba, arriving at t. It
// returns the completion time of the program, including any garbage
// collection performed inline.
func (f *FTL) Write(t sim.Time, lba uint64, data []byte) (sim.Time, error) {
	plane := f.planeRR
	f.planeRR = (f.planeRR + 1) % f.geo.Planes()

	now := t
	if f.freeCount(plane) <= f.cfg.GCLowWater {
		var err error
		now, err = f.collect(now, plane)
		if err != nil {
			return now, err
		}
	}
	ppn, ok := f.allocate(plane)
	if !ok {
		return now, ErrFull
	}
	done, err := f.arr.ProgramPage(now, ppn, data)
	if err != nil {
		return done, fmt.Errorf("ftl: allocation handed out a dirty page: %w", err)
	}
	if old, dup := f.l2p.get(lba); dup {
		f.invalidate(flash.PPN(old))
	}
	f.mapPage(lba, ppn)
	f.stats.HostWrites++
	return done, nil
}

// Read returns the data stored at lba (up to `bytes` transferred; 0 =
// full page) and the completion time. Reading an unwritten LBA returns
// a zero page but still pays the flash read — the evaluation
// preconditions the media ("we completely wrote all data-blocks into
// the flash-media", §VI-A), so every exported LBA is backed by a
// physical page. The pseudo-mapping lba→ppn preserves the channel
// striping of sequential preconditioning.
func (f *FTL) Read(t sim.Time, lba uint64, bytes uint32) (sim.Time, []byte) {
	buf := make([]byte, f.geo.PageBytes)
	done := f.ReadInto(t, lba, bytes, buf)
	return done, buf
}

// ReadInto is the allocation-free Read: the page content lands in dst
// (zero-filled past the stored data). A nil dst charges timing only.
func (f *FTL) ReadInto(t sim.Time, lba uint64, bytes uint32, dst []byte) sim.Time {
	ppn, ok := f.l2p.get(lba)
	if !ok {
		f.stats.UnmappedRead++
		pseudo := flash.PPN(lba % f.geo.TotalPages())
		done := f.arr.ReadPageInto(t, pseudo, bytes, nil)
		for i := range dst {
			dst[i] = 0
		}
		return done
	}
	done := f.arr.ReadPageInto(t, flash.PPN(ppn), bytes, dst)
	f.stats.HostReads++
	return done
}

// Peek returns the data stored at lba without any timing effect.
func (f *FTL) Peek(lba uint64) []byte {
	ppn, ok := f.l2p.get(lba)
	if !ok {
		return make([]byte, f.geo.PageBytes)
	}
	return f.arr.PeekPage(flash.PPN(ppn))
}

// Trim discards the mapping for lba.
func (f *FTL) Trim(lba uint64) {
	if ppn, ok := f.l2p.get(lba); ok {
		f.invalidate(flash.PPN(ppn))
		f.l2p.del(lba)
	}
}

// collect performs greedy GC in one plane until the free count rises
// above the low-water mark: pick the closed block with the fewest valid
// pages, relocate its valid pages, erase it.
func (f *FTL) collect(t sim.Time, plane int) (sim.Time, error) {
	now := t
	for f.freeCount(plane) <= f.cfg.GCLowWater {
		victim := f.pickVictim(plane)
		if victim < 0 {
			if f.freeCount(plane) > 0 {
				return now, nil // nothing to collect but we can still write
			}
			return now, ErrFull
		}
		f.stats.GCRuns++
		// Relocate valid pages.
		ad := f.planeCoords(plane)
		ad.Block = victim
		for pg := 0; pg < f.geo.PagesPerBlk; pg++ {
			ad.Page = pg
			ppn := f.geo.Compose(ad)
			lba, live := f.p2l.get(uint64(ppn))
			if !live {
				continue
			}
			rdDone := f.arr.ReadPageInto(now, ppn, 0, f.gcBuf)
			dst, ok := f.allocate(plane)
			if !ok {
				return now, ErrFull
			}
			progDone, err := f.arr.ProgramPage(rdDone, dst, f.gcBuf)
			if err != nil {
				return now, fmt.Errorf("ftl gc: %w", err)
			}
			f.invalidate(ppn)
			f.mapPage(lba, dst)
			f.stats.GCWrites++
			now = progDone
		}
		ad.Page = 0
		now = f.arr.EraseBlock(now, f.geo.Compose(ad))
		f.stats.Erases++
		f.recycled[plane] = append(f.recycled[plane], victim)
		f.valid[plane][victim] = freeBlock
	}
	return now, nil
}

// pickVictim returns the closed block in plane with the fewest valid
// pages that is not the active block and not free, or -1 when every
// candidate is fully valid (nothing reclaimable) or none exists. Only
// allocated blocks can be candidates, so the scan stops at the
// plane's virgin cursor.
func (f *FTL) pickVictim(plane int) int {
	best, bestValid := -1, int32(f.geo.PagesPerBlk)
	act := f.active[plane].block
	for b, v := range f.valid[plane] {
		if b != act && v != freeBlock && v < bestValid {
			best, bestValid = b, v
		}
	}
	return best
}

// FreeBlocks returns the free-block count of a plane (for tests).
func (f *FTL) FreeBlocks(plane int) int { return f.freeCount(plane) }
