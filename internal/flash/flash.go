// Package flash models a NAND flash complex: channels × packages ×
// dies × planes with per-die occupancy, per-channel data buses, page
// program/read/erase state rules, and functional page data. Two media
// are provided: Z-NAND (the ULL-Flash medium, SLC-like 3 µs reads /
// 100 µs programs, §II-C) and conventional V-NAND TLC (the baseline
// NVMe SSD medium).
package flash

import (
	"fmt"

	"hams/internal/sim"
)

// Timing carries the medium's operation latencies.
type Timing struct {
	TRead   sim.Time // page read (cell array -> page register)
	TProg   sim.Time // page program
	TErase  sim.Time // block erase
	ChanGBs float64  // per-channel transfer bandwidth
}

// ZNAND returns the Z-NAND timing from the paper (3 µs / 100 µs).
func ZNAND() Timing {
	return Timing{
		TRead:   3 * sim.Microsecond,
		TProg:   100 * sim.Microsecond,
		TErase:  1 * sim.Millisecond,
		ChanGBs: 1.2,
	}
}

// VNANDTLC returns conventional TLC timing: the paper cites Z-NAND as
// 15x / 7x faster for read / write than V-NAND.
func VNANDTLC() Timing {
	return Timing{
		TRead:   45 * sim.Microsecond,
		TProg:   700 * sim.Microsecond,
		TErase:  5 * sim.Millisecond,
		ChanGBs: 0.8,
	}
}

// Geometry describes the physical organization.
type Geometry struct {
	Channels     int
	PackagesPerC int
	DiesPerPkg   int
	PlanesPerDie int
	BlocksPerPln int
	PagesPerBlk  int
	PageBytes    uint64
}

// ULLGeometry returns the 800 GB-class 16-channel Z-NAND geometry of
// the paper's prototype (§II-C, Table II). Host memory follows use,
// not capacity: the array stores only programmed pages, and the FTL
// sizes its per-block table by the blocks it has allocated, so the
// 819,200 blocks cost nothing until written.
func ULLGeometry() Geometry {
	return Geometry{
		Channels:     16,
		PackagesPerC: 2,
		DiesPerPkg:   2,
		PlanesPerDie: 2,
		BlocksPerPln: 6400,
		PagesPerBlk:  256,
		PageBytes:    4096,
	}
}

// Dies returns the total number of dies.
func (g Geometry) Dies() int { return g.Channels * g.PackagesPerC * g.DiesPerPkg }

// Planes returns the total number of planes.
func (g Geometry) Planes() int { return g.Dies() * g.PlanesPerDie }

// Blocks returns the total number of blocks.
func (g Geometry) Blocks() int { return g.Planes() * g.BlocksPerPln }

// TotalPages returns the number of physical pages.
func (g Geometry) TotalPages() uint64 {
	return uint64(g.Blocks()) * uint64(g.PagesPerBlk)
}

// Capacity returns the raw capacity in bytes.
func (g Geometry) Capacity() uint64 { return g.TotalPages() * g.PageBytes }

// PPN is a physical page number in [0, TotalPages).
type PPN uint64

// Addr decomposes a PPN. Pages are striped so that consecutive PPNs
// rotate across channels first, then dies, then planes — giving maximal
// parallelism for sequential physical allocation.
type Addr struct {
	Channel, Package, Die, Plane, Block, Page int
}

// Decompose splits a PPN into its physical coordinates.
func (g Geometry) Decompose(p PPN) Addr {
	v := uint64(p)
	ch := int(v % uint64(g.Channels))
	v /= uint64(g.Channels)
	pkg := int(v % uint64(g.PackagesPerC))
	v /= uint64(g.PackagesPerC)
	die := int(v % uint64(g.DiesPerPkg))
	v /= uint64(g.DiesPerPkg)
	pln := int(v % uint64(g.PlanesPerDie))
	v /= uint64(g.PlanesPerDie)
	pg := int(v % uint64(g.PagesPerBlk))
	v /= uint64(g.PagesPerBlk)
	blk := int(v)
	return Addr{Channel: ch, Package: pkg, Die: die, Plane: pln, Block: blk, Page: pg}
}

// Compose is the inverse of Decompose.
func (g Geometry) Compose(a Addr) PPN {
	v := uint64(a.Block)
	v = v*uint64(g.PagesPerBlk) + uint64(a.Page)
	v = v*uint64(g.PlanesPerDie) + uint64(a.Plane)
	v = v*uint64(g.DiesPerPkg) + uint64(a.Die)
	v = v*uint64(g.PackagesPerC) + uint64(a.Package)
	v = v*uint64(g.Channels) + uint64(a.Channel)
	return PPN(v)
}

// GlobalDie returns the flat die index for occupancy tracking.
func (g Geometry) GlobalDie(a Addr) int {
	return (a.Channel*g.PackagesPerC+a.Package)*g.DiesPerPkg + a.Die
}

// BlockID flattens (plane-level) block coordinates for erase tracking.
func (g Geometry) BlockID(a Addr) uint64 {
	plane := uint64(g.GlobalDie(a))*uint64(g.PlanesPerDie) + uint64(a.Plane)
	return plane*uint64(g.BlocksPerPln) + uint64(a.Block)
}

// Stats aggregates flash activity for the energy model.
type Stats struct {
	Reads, Programs, Erases int64
	BytesIn, BytesOut       int64
	DieBusy                 sim.Time
}

// Array is the flash complex.
type Array struct {
	Geo Geometry
	Tim Timing

	dies  []sim.Time // next-free per die
	chans []*sim.Resource
	// data holds every programmed page. A page is "written" (NAND
	// protocol state) exactly when it has an entry, which only an
	// erase removes. Live pages carry a full-page payload; a stale
	// page (Discard) keeps its entry with a nil payload, since nothing
	// reads content the FTL has invalidated. Both Discard and erase
	// recycle payloads through freeBufs, so host memory follows the
	// live pages and steady-state overwrites stop allocating.
	data     map[PPN][]byte
	freeBufs [][]byte
	erases   map[uint64]int64 // blockID -> erase count (wear)
	stats    Stats
}

// New builds an array from a geometry and timing.
func New(g Geometry, t Timing) *Array {
	a := &Array{
		Geo:   g,
		Tim:   t,
		dies:  make([]sim.Time, g.Dies()),
		chans: make([]*sim.Resource, g.Channels),
		data:  make(map[PPN][]byte),

		erases: make(map[uint64]int64),
	}
	for i := range a.chans {
		a.chans[i] = sim.NewResource()
	}
	return a
}

// Stats returns a copy of the counters.
func (a *Array) Stats() Stats { return a.stats }

// ResetStats zeroes the counters.
func (a *Array) ResetStats() { a.stats = Stats{} }

// Written reports whether ppn holds programmed data.
func (a *Array) Written(p PPN) bool {
	_, ok := a.data[p]
	return ok
}

// EraseCount returns the wear of the block containing ppn.
func (a *Array) EraseCount(p PPN) int64 {
	return a.erases[a.Geo.BlockID(a.Geo.Decompose(p))]
}

func (a *Array) dieOf(p PPN) int { return a.Geo.GlobalDie(a.Geo.Decompose(p)) }

// xferBytes returns the clamped transfer size for partial-page ops.
func (a *Array) xferBytes(n uint32) int64 {
	if n == 0 || uint64(n) > a.Geo.PageBytes {
		return int64(a.Geo.PageBytes)
	}
	return int64(n)
}

// readTiming charges the die and channel for a read of n transfer
// bytes and returns the completion time.
func (a *Array) readTiming(t sim.Time, ad Addr, n int64) sim.Time {
	die := a.Geo.GlobalDie(ad)
	start := t
	if a.dies[die] > start {
		start = a.dies[die]
	}
	cellDone := start + a.Tim.TRead
	a.dies[die] = cellDone
	a.stats.DieBusy += a.Tim.TRead
	_, done := a.chans[ad.Channel].Acquire(cellDone, sim.Bandwidth(n, a.Tim.ChanGBs))
	a.stats.Reads++
	a.stats.BytesOut += n
	return done
}

// ReadPage performs a flash read of up to bytes (0 = full page) from
// ppn arriving at t: the die is busy for TRead, then the data crosses
// the channel bus. It returns the completion time and the page data.
func (a *Array) ReadPage(t sim.Time, p PPN, bytes uint32) (sim.Time, []byte) {
	buf := make([]byte, a.Geo.PageBytes)
	return a.ReadPageInto(t, p, bytes, buf), buf
}

// ReadPageInto is the allocation-free ReadPage: the page content lands
// in dst (zero-filled past the stored data; dst longer than a page is
// zero-filled to the page size). A nil dst charges timing only.
func (a *Array) ReadPageInto(t sim.Time, p PPN, bytes uint32, dst []byte) sim.Time {
	done := a.readTiming(t, a.Geo.Decompose(p), a.xferBytes(bytes))
	if dst == nil {
		return done
	}
	if uint64(len(dst)) > a.Geo.PageBytes {
		dst = dst[:a.Geo.PageBytes]
	}
	n := copy(dst, a.data[p])
	for i := n; i < len(dst); i++ {
		dst[i] = 0
	}
	return done
}

// ErrProgramWritten is returned when programming a non-erased page,
// which would be a NAND protocol violation (FTL bug).
var ErrProgramWritten = fmt.Errorf("flash: program to non-erased page")

// ProgramPage programs data into ppn arriving at t: the data crosses
// the channel bus, then the die is busy for TProg. Programming a page
// that has not been erased since its last program returns an error.
func (a *Array) ProgramPage(t sim.Time, p PPN, data []byte) (sim.Time, error) {
	if _, ok := a.data[p]; ok {
		return t, ErrProgramWritten
	}
	ad := a.Geo.Decompose(p)
	die := a.Geo.GlobalDie(ad)
	n := int64(a.Geo.PageBytes) // programs always move a full page
	_, xferDone := a.chans[ad.Channel].Acquire(t, sim.Bandwidth(n, a.Tim.ChanGBs))
	start := xferDone
	if a.dies[die] > start {
		start = a.dies[die]
	}
	done := start + a.Tim.TProg
	a.dies[die] = done
	a.stats.DieBusy += a.Tim.TProg
	a.stats.Programs++
	a.stats.BytesIn += n

	var stored []byte
	if k := len(a.freeBufs); k > 0 {
		stored = a.freeBufs[k-1]
		a.freeBufs = a.freeBufs[:k-1]
	} else {
		stored = make([]byte, a.Geo.PageBytes)
	}
	m := copy(stored, data)
	for i := m; i < len(stored); i++ {
		stored[i] = 0
	}
	a.data[p] = stored
	return done, nil
}

// Discard marks ppn stale: the page stays programmed (re-programming
// it still needs an erase) but its payload is dropped and the buffer
// recycled. The FTL calls it when it invalidates a page, so host
// memory holds only pages some LBA still maps. Discarding a page that
// is unwritten or already stale is a no-op. No simulated time passes.
func (a *Array) Discard(p PPN) {
	if d := a.data[p]; d != nil {
		a.freeBufs = append(a.freeBufs, d)
		a.data[p] = nil
	}
}

// EraseBlock erases the block containing ppn, returning every page in
// it to the unwritten state and recycling any payload still held (the
// FTL discards pages before it erases their block, so normally none
// is). It returns the completion time.
func (a *Array) EraseBlock(t sim.Time, p PPN) sim.Time {
	ad := a.Geo.Decompose(p)
	die := a.Geo.GlobalDie(ad)
	start := t
	if a.dies[die] > start {
		start = a.dies[die]
	}
	done := start + a.Tim.TErase
	a.dies[die] = done
	a.stats.DieBusy += a.Tim.TErase
	a.stats.Erases++
	bid := a.Geo.BlockID(ad)
	a.erases[bid]++
	// Clear every page of the block.
	base := Addr{Channel: ad.Channel, Package: ad.Package, Die: ad.Die, Plane: ad.Plane, Block: ad.Block}
	for pg := 0; pg < a.Geo.PagesPerBlk; pg++ {
		base.Page = pg
		ppn := a.Geo.Compose(base)
		if d := a.data[ppn]; d != nil {
			a.freeBufs = append(a.freeBufs, d)
		}
		delete(a.data, ppn)
	}
	return done
}

// DieNextFree exposes die occupancy (for queue-depth experiments).
func (a *Array) DieNextFree(i int) sim.Time { return a.dies[i] }

// PeekPage returns the stored page data without any timing effect.
// Used by functional (non-timed) inspection paths.
func (a *Array) PeekPage(p PPN) []byte {
	buf := make([]byte, a.Geo.PageBytes)
	copy(buf, a.data[p])
	return buf
}

func (a *Array) String() string {
	return fmt.Sprintf("flash(%dch x %dpkg x %ddie, %s read)",
		a.Geo.Channels, a.Geo.PackagesPerC, a.Geo.DiesPerPkg, a.Tim.TRead)
}
