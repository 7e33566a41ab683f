// Package osmodel models the software path the paper's mmap baseline
// pays on every page miss: page-fault handling, context switches, the
// file system, the blk-mq layer and the NVMe driver (§II-B, Figure 3),
// plus an OS page cache with sequential read-ahead and periodic dirty
// write-back. The budgets follow §III-B: MMF software operations cost
// 15–20 µs per fault and make up ~69 % of execution for data-intensive
// workloads.
package osmodel

import (
	"hams/internal/dram"
	"hams/internal/mem"
	"hams/internal/pcie"
	"hams/internal/sim"
	"hams/internal/ssd"
)

// Costs itemizes the software budgets (ns).
type Costs struct {
	FaultEntry    sim.Time // trap, VMA lookup, PTE allocation
	ContextSwitch sim.Time // schedule-out + schedule-in around the block
	Filesystem    sim.Time // inode lock, boundary/permission checks, bio setup
	BlkMq         sim.Time // software/hardware queue scheduling
	Driver        sim.Time // NVMe driver submit + interrupt service
}

// DefaultCosts matches the paper's 15–20 µs MMF software budget.
func DefaultCosts() Costs {
	return Costs{
		FaultEntry:    1500,
		ContextSwitch: 6 * sim.Microsecond, // "one of the main contributors"
		Filesystem:    3 * sim.Microsecond,
		BlkMq:         2 * sim.Microsecond,
		Driver:        1500,
	}
}

// Total returns the per-fault software time (one switch out + in).
func (c Costs) Total() sim.Time {
	return c.FaultEntry + 2*c.ContextSwitch + c.Filesystem + c.BlkMq + c.Driver
}

// Config assembles the MMF system.
type Config struct {
	Costs        Costs
	OSPageBytes  uint64 // fault granularity (4 KiB default)
	CachePages   int    // page-cache capacity in OS pages
	ReadAhead    int    // pages prefetched on a sequential fault
	WritebackN   int    // flush dirty pages every N page-cache writes
	DRAM         dram.Config
	SSD          ssd.Config
	Link         pcie.Config
	PersistFlush bool // periodically flush for persistency (mmap+MSYNC)
}

// DefaultConfig returns the evaluation baseline: 8 GB DRAM page cache
// over a ULL-Flash behind PCIe 3.0 x4.
func DefaultConfig() Config {
	d := dram.DefaultConfig()
	d.Functional = false
	return Config{
		Costs:        DefaultCosts(),
		OSPageBytes:  4 * mem.KiB,
		CachePages:   int(8 * mem.GiB / (4 * mem.KiB)),
		ReadAhead:    8,
		WritebackN:   64,
		DRAM:         d,
		SSD:          ssd.ULLFlash(),
		Link:         pcie.Gen3x4(),
		PersistFlush: true,
	}
}

// Result decomposes one access's latency for Fig. 7a / Fig. 17.
type Result struct {
	Done  sim.Time
	Hit   bool
	OS    sim.Time // total software time (Mmap + Stack)
	Mmap  sim.Time // page fault handling + context switches
	Stack sim.Time // filesystem + blk-mq + driver
	Mem   sim.Time // DRAM time
	SSD   sim.Time // device + link time
}

// Stats aggregates MMF activity.
type Stats struct {
	Accesses   int64
	Faults     int64
	CacheHits  int64
	ReadAheads int64
	Writebacks int64
	OSTime     sim.Time
	MmapTime   sim.Time
	StackTime  sim.Time
	MemTime    sim.Time
	SSDTime    sim.Time
}

// MMF is the memory-mapped-file system model. The page cache is a
// mem.PageLRU (chunked slots; a warmed range is one run, stored as
// pages are touched) with a slot-indexed dirty bit and a FIFO
// dirty queue: msync walks only the pages dirtied since the last
// flush — in first-dirtied order, which is deterministic — instead of
// scanning the whole multi-million-entry cache.
type MMF struct {
	cfg   Config
	dramC *dram.DDR4
	dev   *ssd.Device
	link  *pcie.Link

	cache    *mem.PageLRU
	dirty    []bool   // slot -> dirty
	dirtyQ   []uint64 // pages awaiting msync, first-dirtied order
	lastPage uint64   // sequential detection
	dirtyN   int

	zeroPage []byte       // reusable write-back payload (DRAM model is non-functional)
	split    []mem.Access // SplitByPage scratch

	stats Stats
}

// New builds the MMF system.
func New(cfg Config) *MMF {
	if cfg.OSPageBytes == 0 {
		cfg.OSPageBytes = 4 * mem.KiB
	}
	if cfg.CachePages <= 0 {
		cfg.CachePages = 1024
	}
	return &MMF{
		cfg:      cfg,
		dramC:    dram.New(cfg.DRAM),
		dev:      ssd.New(cfg.SSD),
		link:     pcie.New(cfg.Link),
		cache:    mem.NewPageLRU(),
		zeroPage: make([]byte, cfg.OSPageBytes),
	}
}

// Device exposes the backing SSD (energy accounting).
func (m *MMF) Device() *ssd.Device { return m.dev }

// DRAM exposes the page-cache memory (energy accounting).
func (m *MMF) DRAM() *dram.DDR4 { return m.dramC }

// Stats returns a copy of the counters.
func (m *MMF) Stats() Stats { return m.stats }

// Warm inserts the OS pages covering [base, base+size) into the page
// cache without charging time (steady-state pre-warm; see core.Warm).
// Warmed pages are clean: new slots start clean, and insert clears a
// victim's dirty bit before its slot is recycled.
func (m *MMF) Warm(base, size uint64) {
	pb := m.cfg.OSPageBytes
	m.cache.Warm(base/pb, (base+size+pb-1)/pb, m.cfg.CachePages)
	if n := m.cache.Slots() - len(m.dirty); n > 0 {
		m.dirty = append(m.dirty, make([]bool, n)...)
	}
}

// Access serves one user-level load/store against the mmap'd region.
func (m *MMF) Access(t sim.Time, a mem.Access) Result {
	var res Result
	res.Hit = true
	m.split = mem.AppendSplit(m.split[:0], a, m.cfg.OSPageBytes)
	for _, part := range m.split {
		r := m.accessPage(t, part)
		res.Done = r.Done
		res.Hit = res.Hit && r.Hit
		res.OS += r.OS
		res.Mmap += r.Mmap
		res.Stack += r.Stack
		res.Mem += r.Mem
		res.SSD += r.SSD
		t = r.Done
	}
	m.stats.Accesses++
	m.stats.OSTime += res.OS
	m.stats.MmapTime += res.Mmap
	m.stats.StackTime += res.Stack
	m.stats.MemTime += res.Mem
	m.stats.SSDTime += res.SSD
	return res
}

func (m *MMF) accessPage(t sim.Time, a mem.Access) Result {
	var res Result
	page := a.Addr / m.cfg.OSPageBytes
	slot, ok := m.cache.Get(page)
	if ok {
		m.stats.CacheHits++
		m.cache.MoveToFront(slot)
		res.Hit = true
	} else {
		res.Hit = false
		faultDone := m.fault(t, page, a.Addr)
		c := m.cfg.Costs
		res.Mmap += c.FaultEntry + 2*c.ContextSwitch
		res.Stack += c.Filesystem + c.BlkMq + c.Driver
		res.OS += m.cfg.Costs.Total()
		res.SSD += faultDone - t - m.cfg.Costs.Total()
		if res.SSD < 0 {
			res.SSD = 0
		}
		t = faultDone
		slot, ok = m.cache.Get(page)
	}
	// The access itself is served from the DRAM page cache.
	done := m.dramC.Access(t, a.Addr, a.Size, a.Op)
	res.Mem += done - t
	if a.Op == mem.Write {
		if ok && !m.dirty[slot] {
			m.dirty[slot] = true
			m.dirtyQ = append(m.dirtyQ, page)
		}
		m.dirtyN++
		if m.cfg.PersistFlush && m.cfg.WritebackN > 0 && m.dirtyN >= m.cfg.WritebackN {
			// msync blocks the caller until the dirty pages reach the
			// device — the persistency price the software design pays
			// on every sync interval (§VI-C energy discussion).
			fdone := m.writeback(done)
			res.SSD += fdone - done
			done = fdone
			m.dirtyN = 0
		}
	}
	res.Done = done
	return res
}

// fault brings one page (plus read-ahead) into the page cache.
func (m *MMF) fault(t sim.Time, page uint64, addr uint64) sim.Time {
	m.stats.Faults++
	c := m.cfg.Costs
	// Software path before the I/O is issued.
	now := t + c.FaultEntry + c.ContextSwitch + c.Filesystem + c.BlkMq + c.Driver

	n := 1
	if page == m.lastPage+1 && m.cfg.ReadAhead > 1 {
		n = m.cfg.ReadAhead
		m.stats.ReadAheads++
	}
	m.lastPage = page

	// Device read + PCIe transfer for each page; read-ahead pages are
	// fetched in parallel on the device and pipelined on the link.
	var last sim.Time
	for i := 0; i < n; i++ {
		d := m.dev.ReadInto(now, page+uint64(i), 0, nil)
		d = m.link.ToHost(d, int64(m.cfg.OSPageBytes))
		d = m.dramC.Bulk(d, (page+uint64(i))*m.cfg.OSPageBytes, uint32(m.cfg.OSPageBytes), mem.Write)
		if d > last {
			last = d
		}
		m.insert(page + uint64(i))
	}
	// Wake the process: schedule-in context switch.
	return last + c.ContextSwitch
}

func (m *MMF) insert(page uint64) {
	if slot, ok := m.cache.Get(page); ok {
		m.cache.MoveToFront(slot)
		return
	}
	for m.cache.Len() >= m.cfg.CachePages {
		vpage, vslot := m.cache.RemoveBack()
		if m.dirty[vslot] {
			m.dirty[vslot] = false
			// Asynchronous write-back occupies the device.
			m.dev.Write(0, vpage, m.zeroPage, false)
			m.stats.Writebacks++
		}
	}
	slot := m.cache.InsertFront(page)
	for int(slot) >= len(m.dirty) {
		m.dirty = append(m.dirty, false)
	}
	m.dirty[slot] = false
}

// writeback flushes dirty pages to the device (msync) and returns the
// time the last write completes. Pages are flushed in the order they
// were first dirtied (the dirty queue); entries whose page was since
// evicted (written back by insert) or re-flushed are skipped.
func (m *MMF) writeback(t sim.Time) sim.Time {
	last := t
	for _, page := range m.dirtyQ {
		slot, ok := m.cache.Get(page)
		if !ok || !m.dirty[slot] {
			continue
		}
		d, _ := m.dev.Write(t, page, m.zeroPage, false)
		d = m.link.ToDevice(d, int64(m.cfg.OSPageBytes))
		if d > last {
			last = d
		}
		m.dirty[slot] = false
		m.stats.Writebacks++
	}
	m.dirtyQ = m.dirtyQ[:0]
	return last
}
