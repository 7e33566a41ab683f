package platform

import (
	"hams/internal/cpu"
	"hams/internal/dram"
	"hams/internal/energy"
	"hams/internal/mem"
	"hams/internal/sim"
	"hams/internal/ssd"
)

// zeroLine / zeroPage4K are shared write payloads for the baselines'
// functional-data-free device traffic (their DRAM models are
// non-functional and the devices copy on write, so a shared zero
// buffer is safe and saves an allocation per write).
var (
	zeroLine   [64]byte
	zeroPage4K [4 * mem.KiB]byte
)

// ---------------------------------------------------------------------
// dramCache: a page-granular LRU DRAM cache used by optane-M,
// flatflash-M and nvdimm-C. Backed by a real DDR4 timing model; the
// backend fetches/evicts pages on the slow side. The residency index
// is a mem.PageLRU (chunked slots; a warmed range is one run) with a
// slot-indexed dirty bit — note that, as in the seed, plain residency
// probes do not touch recency; only insert() refreshes it.

type dramCache struct {
	d         *dram.DDR4
	pageBytes uint64
	capPages  int
	lru       *mem.PageLRU
	dirty     []bool
	promoteN  int // touches before promotion (1 = always cache)
	touches   map[uint64]int
}

func newDRAMCache(capBytes, pageBytes uint64, promoteN int) *dramCache {
	cfg := dram.DefaultConfig()
	cfg.Functional = false
	cfg.Capacity = capBytes
	if promoteN < 1 {
		promoteN = 1
	}
	return &dramCache{
		d:         dram.New(cfg),
		pageBytes: pageBytes,
		capPages:  int(capBytes / pageBytes),
		lru:       mem.NewPageLRU(),
		promoteN:  promoteN,
		touches:   make(map[uint64]int),
	}
}

// resident returns the slot holding addr's page without touching
// recency.
func (c *dramCache) resident(addr uint64) (int32, bool) {
	return c.lru.Get(addr / c.pageBytes)
}

func (c *dramCache) markDirty(slot int32) { c.dirty[slot] = true }

// shouldPromote counts a touch and reports whether the page earned a
// slot in the cache.
func (c *dramCache) shouldPromote(addr uint64) bool {
	pg := addr / c.pageBytes
	c.touches[pg]++
	if c.touches[pg] >= c.promoteN {
		delete(c.touches, pg)
		return true
	}
	return false
}

// warm fills the cache with the pages of [base, base+size) untimed.
// Warmed pages are clean: new slots start clean, and insert clears a
// victim's dirty bit before its slot is recycled.
func (c *dramCache) warm(base, size uint64) {
	c.lru.Warm(base/c.pageBytes, (base+size+c.pageBytes-1)/c.pageBytes, c.capPages)
	if n := c.lru.Slots() - len(c.dirty); n > 0 {
		c.dirty = append(c.dirty, make([]bool, n)...)
	}
}

// insert places a page, returning the evicted dirty page (ok=false if
// none; with multiple evictions the last dirty victim wins, as in the
// seed).
func (c *dramCache) insert(page uint64, dirty bool) (uint64, bool) {
	if slot, ok := c.lru.Get(page); ok {
		c.dirty[slot] = c.dirty[slot] || dirty
		c.lru.MoveToFront(slot)
		return 0, false
	}
	var victim uint64
	victimDirty := false
	for c.lru.Len() >= c.capPages {
		vpage, vslot := c.lru.RemoveBack()
		if c.dirty[vslot] {
			victim, victimDirty = vpage, true
			c.dirty[vslot] = false
		}
	}
	slot := c.lru.InsertFront(page)
	for int(slot) >= len(c.dirty) {
		c.dirty = append(c.dirty, false)
	}
	c.dirty[slot] = dirty
	return victim, victimDirty
}

// ---------------------------------------------------------------------
// optane-P / optane-M: Optane DC PMM (App Direct) with its 256 B
// internal block and small XPBuffer; optane-M adds an 8 GB DRAM cache
// in front (sacrificing persistency), per [29]/[66].

type optanePlatform struct {
	name     string
	media    *sim.Resource
	wdrain   *sim.Resource
	cache    *dramCache // nil for optane-P
	readLat  sim.Time
	writeLat sim.Time
	blockB   uint64
	xpBufB   int64
	drainGBs float64

	reads, writes int64
	bytesMoved    int64
	energyDRAM    dram.Stats
}

func newOptane(withDRAM bool) *optanePlatform {
	p := &optanePlatform{
		name:     "optane-P",
		media:    sim.NewResource(),
		wdrain:   sim.NewResource(),
		readLat:  300,
		writeLat: 100,
		blockB:   256,
		xpBufB:   16 * 1024,
		drainGBs: 2.3,
	}
	if withDRAM {
		p.name = "optane-M"
		p.cache = newDRAMCache(8*mem.GiB, 4*mem.KiB, 1)
	}
	return p
}

func (p *optanePlatform) Name() string { return p.name }

// mediaAccess charges one access against the PMM media: every touched
// 256 B internal block costs full block bandwidth — the request-size
// mismatch that hurts Optane on fine-grained workloads (§VI-B).
func (p *optanePlatform) mediaAccess(t sim.Time, a mem.Access) sim.Time {
	blocks := int64(mem.AlignUp(a.Addr+uint64(a.Size), p.blockB)-mem.AlignDown(a.Addr, p.blockB)) / int64(p.blockB)
	p.bytesMoved += blocks * int64(p.blockB)
	if a.Op == mem.Read {
		p.reads += blocks
		_, done := p.media.Acquire(t, sim.Time(blocks)*p.readLat)
		return done
	}
	p.writes += blocks
	// Writes land in the XPBuffer quickly but drain slowly; when the
	// drain backlog exceeds the buffer, the write stalls behind it.
	drain := sim.Bandwidth(blocks*int64(p.blockB), p.drainGBs)
	_, drainDone := p.wdrain.Acquire(t, drain)
	visible := t + sim.Time(blocks)*p.writeLat
	backlog := drainDone - t
	if backlog > sim.Bandwidth(p.xpBufB, p.drainGBs) {
		visible = drainDone // buffer full: write-through behavior
	}
	return visible
}

func (p *optanePlatform) Access(t sim.Time, a mem.Access) (cpu.MemResult, error) {
	if p.cache == nil {
		done := p.mediaAccess(t, a)
		return cpu.MemResult{Done: done, SSD: done - t}, nil
	}
	if slot, ok := p.cache.resident(a.Addr); ok {
		done := p.cache.d.Access(t, a.Addr, a.Size, a.Op)
		if a.Op == mem.Write {
			p.cache.markDirty(slot)
		}
		return cpu.MemResult{Done: done, Mem: done - t}, nil
	}
	// Miss: fetch the 4 KiB page from the media, evict dirty victim.
	pageAddr := mem.AlignDown(a.Addr, p.cache.pageBytes)
	fetchDone := p.mediaAccess(t, mem.Access{Addr: pageAddr, Size: uint32(p.cache.pageBytes), Op: mem.Read})
	if victim, dirty := p.cache.insert(pageAddr/p.cache.pageBytes, a.Op == mem.Write); dirty {
		p.mediaAccess(fetchDone, mem.Access{Addr: victim * p.cache.pageBytes, Size: uint32(p.cache.pageBytes), Op: mem.Write})
	}
	land := p.cache.d.Bulk(fetchDone, pageAddr, uint32(p.cache.pageBytes), mem.Write)
	done := p.cache.d.Access(land, a.Addr, a.Size, a.Op)
	return cpu.MemResult{Done: done, Mem: done - fetchDone, SSD: fetchDone - t}, nil
}

// Warm pre-populates the DRAM cache (no-op for optane-P).
func (p *optanePlatform) Warm(base, size uint64) {
	if p.cache != nil {
		p.cache.warm(base, size)
	}
}

func (p *optanePlatform) EnergyInputs() energy.Inputs {
	in := energy.Inputs{}
	if p.cache != nil {
		in.DRAM = p.cache.d.Stats()
	}
	// Optane media energy is folded into the NVDIMM bucket via a
	// synthetic byte count (the paper's Fig. 19 has no Optane bar;
	// energy for optane platforms is reported but not decomposed).
	in.DRAM.BytesRead += p.bytesMoved
	return in
}

// ---------------------------------------------------------------------
// flatflash-P / flatflash-M: byte-addressable SSD over MMIO [1].

type flatflashPlatform struct {
	name    string
	dev     *ssd.Device
	mmioLat sim.Time
	mmio    *sim.Resource
	cache   *dramCache // flatflash-M promotes hot pages to host DRAM
}

func newFlatFlash(hostCache bool) *flatflashPlatform {
	p := &flatflashPlatform{
		name:    "flatflash-P",
		dev:     ssd.New(ssd.ULLFlash()),
		mmioLat: 4800 - 100, // 4.8 us per 64 B access incl. device DRAM
		mmio:    sim.NewResource(),
	}
	if hostCache {
		p.name = "flatflash-M"
		p.cache = newDRAMCache(8*mem.GiB, 4*mem.KiB, 2)
	}
	return p
}

func (p *flatflashPlatform) Name() string { return p.name }

// mmioAccess is one cache-line access tunneled over PCIe MMIO: 4.8 us
// when the SSD-internal DRAM holds the page, plus Z-NAND time when not.
func (p *flatflashPlatform) mmioAccess(t sim.Time, a mem.Access) sim.Time {
	lines := int64(mem.AlignUp(a.Addr+uint64(a.Size), 64)-mem.AlignDown(a.Addr, 64)) / 64
	lba := a.Addr / p.dev.PageBytes()
	var devDone sim.Time
	if a.Op == mem.Read {
		devDone = p.dev.ReadInto(t, lba, 64, nil)
	} else {
		devDone, _ = p.dev.Write(t, lba, zeroLine[:], false)
	}
	_, mmioDone := p.mmio.Acquire(t, sim.Time(lines)*p.mmioLat)
	if devDone > mmioDone {
		return devDone
	}
	return mmioDone
}

func (p *flatflashPlatform) Access(t sim.Time, a mem.Access) (cpu.MemResult, error) {
	if p.cache == nil {
		done := p.mmioAccess(t, a)
		return cpu.MemResult{Done: done, SSD: done - t}, nil
	}
	if slot, ok := p.cache.resident(a.Addr); ok {
		done := p.cache.d.Access(t, a.Addr, a.Size, a.Op)
		if a.Op == mem.Write {
			p.cache.markDirty(slot)
		}
		return cpu.MemResult{Done: done, Mem: done - t}, nil
	}
	done := p.mmioAccess(t, a)
	res := cpu.MemResult{Done: done, SSD: done - t}
	if p.cache.shouldPromote(a.Addr) {
		// Migrate the hot page into host DRAM (background copy).
		pageAddr := mem.AlignDown(a.Addr, p.cache.pageBytes)
		d := p.dev.ReadInto(done, pageAddr/p.cache.pageBytes, 0, nil)
		land := p.cache.d.Bulk(d, pageAddr, uint32(p.cache.pageBytes), mem.Write)
		if victim, dirty := p.cache.insert(pageAddr/p.cache.pageBytes, a.Op == mem.Write); dirty {
			// FlatFlash cannot guarantee persistency for host-cached
			// dirty pages; the write-back is best-effort.
			p.dev.Write(land, victim*p.cache.pageBytes/p.dev.PageBytes(), zeroPage4K[:p.cache.pageBytes], false)
		}
	}
	return res, nil
}

// Warm pre-populates the host DRAM cache (no-op for flatflash-P).
func (p *flatflashPlatform) Warm(base, size uint64) {
	if p.cache != nil {
		p.cache.warm(base, size)
	}
}

func (p *flatflashPlatform) EnergyInputs() energy.Inputs {
	in := energy.Inputs{Flash: p.dev.FlashStats(), HasIntDRAM: true}
	if p.cache != nil {
		in.DRAM = p.cache.d.Stats()
	}
	return in
}

// ---------------------------------------------------------------------
// nvdimm-C: flash on the DRAM PHY, with page migration restricted to
// DRAM refresh windows [42].

type nvdimmCPlatform struct {
	cache  *dramCache
	dev    *ssd.Device
	tREFI  sim.Time
	migLat sim.Time
}

func newNVDIMMC() *nvdimmCPlatform {
	return &nvdimmCPlatform{
		cache:  newDRAMCache(8*mem.GiB, 4*mem.KiB, 1),
		dev:    ssd.New(ssd.ULLFlashNoBuffer()),
		tREFI:  7800,
		migLat: 48 * sim.Microsecond, // [42]: up to 48 us per page move
	}
}

func (p *nvdimmCPlatform) Name() string { return "nvdimm-C" }

func (p *nvdimmCPlatform) Access(t sim.Time, a mem.Access) (cpu.MemResult, error) {
	if slot, ok := p.cache.resident(a.Addr); ok {
		done := p.cache.d.Access(t, a.Addr, a.Size, a.Op)
		if a.Op == mem.Write {
			p.cache.markDirty(slot)
		}
		return cpu.MemResult{Done: done, Mem: done - t}, nil
	}
	// Miss: wait for the next refresh window, then migrate.
	window := ((t + p.tREFI - 1) / p.tREFI) * p.tREFI
	devDone := p.dev.ReadInto(window, a.Addr/p.dev.PageBytes(), 0, nil)
	migDone := devDone + p.migLat
	if victim, dirty := p.cache.insert(a.Addr/p.cache.pageBytes, a.Op == mem.Write); dirty {
		p.dev.Write(migDone, victim*p.cache.pageBytes/p.dev.PageBytes(), zeroPage4K[:p.cache.pageBytes], false)
	}
	done := p.cache.d.Access(migDone, a.Addr, a.Size, a.Op)
	return cpu.MemResult{Done: done, Mem: done - migDone, SSD: devDone - window, DMA: migDone - devDone + (window - t)}, nil
}

// Warm pre-populates the DRAM cache.
func (p *nvdimmCPlatform) Warm(base, size uint64) { p.cache.warm(base, size) }

func (p *nvdimmCPlatform) EnergyInputs() energy.Inputs {
	return energy.Inputs{DRAM: p.cache.d.Stats(), Flash: p.dev.FlashStats()}
}

// ---------------------------------------------------------------------
// ull-direct / ull-buff: the Fig. 7b bypass strategies — serve every
// L2 miss straight from the ULL-Flash (optionally behind a small page
// buffer) with no other machinery.

type ullDirectPlatform struct {
	name  string
	dev   *ssd.Device
	cache *dramCache
}

func newULLDirect(buffered bool) *ullDirectPlatform {
	p := &ullDirectPlatform{name: "ull-direct", dev: ssd.New(ssd.ULLFlashNoBuffer())}
	if buffered {
		p.name = "ull-buff"
		p.cache = newDRAMCache(64*mem.MiB, 4*mem.KiB, 1)
	}
	return p
}

func (p *ullDirectPlatform) Name() string { return p.name }

func (p *ullDirectPlatform) Access(t sim.Time, a mem.Access) (cpu.MemResult, error) {
	if p.cache != nil {
		if _, ok := p.cache.resident(a.Addr); ok {
			done := p.cache.d.Access(t, a.Addr, a.Size, a.Op)
			return cpu.MemResult{Done: done, Mem: done - t}, nil
		}
	}
	lba := a.Addr / p.dev.PageBytes()
	var done sim.Time
	if a.Op == mem.Read {
		done = p.dev.ReadInto(t, lba, 0, nil)
	} else {
		done, _ = p.dev.Write(t, lba, zeroLine[:], false)
	}
	if p.cache != nil {
		p.cache.insert(a.Addr/p.cache.pageBytes, false)
	}
	return cpu.MemResult{Done: done, SSD: done - t}, nil
}

// Warm pre-populates the page buffer (no-op for ull-direct).
func (p *ullDirectPlatform) Warm(base, size uint64) {
	if p.cache != nil {
		p.cache.warm(base, size)
	}
}

func (p *ullDirectPlatform) EnergyInputs() energy.Inputs {
	in := energy.Inputs{Flash: p.dev.FlashStats()}
	if p.cache != nil {
		in.DRAM = p.cache.d.Stats()
	}
	return in
}
