// Package ssd assembles a solid-state drive from the firmware layers
// the paper describes (§II-C): a host interface layer (HIL) that parses
// commands and splits requests, an internal DRAM buffer/cache in front
// of the channels, the FTL, and the flash interface layer (FIL) —
// realized by the flash array's channel/die occupancy model. Device
// configs are provided for the ULL-Flash (Z-NAND, 512 MB buffer), the
// buffer-less ULL-Flash of advanced HAMS, an Intel-750-class NVMe SSD
// and a SATA SSD.
package ssd

import (
	"fmt"

	"hams/internal/flash"
	"hams/internal/ftl"
	"hams/internal/mem"
	"hams/internal/sim"
)

// Config describes one device.
type Config struct {
	Name        string
	Geometry    flash.Geometry
	Timing      flash.Timing
	FTL         ftl.Config
	BufferBytes uint64   // internal DRAM buffer capacity; 0 = none
	BufferGBs   float64  // internal DRAM bandwidth
	BufferLat   sim.Time // internal DRAM access setup
	HILOverhead sim.Time // firmware time per command
	HILSlots    int      // firmware parallelism
	Supercap    bool     // flush buffer to flash on power failure
}

// ULLFlash returns the 800 GB-class Z-NAND archive with its 512 MB
// internal DRAM (Table II). The Z-NAND dual-channel 2 KB striping
// (§II-C: a 4 KB request is split across two channels, halving DMA
// latency) is folded into the channel transfer rate.
func ULLFlash() Config {
	t := flash.ZNAND()
	t.ChanGBs *= 2 // dual-channel 2 KB striping halves transfer time
	return Config{
		Name:        "ULL-Flash",
		Geometry:    flash.ULLGeometry(),
		Timing:      t,
		FTL:         ftl.DefaultConfig(),
		BufferBytes: 512 << 20,
		BufferGBs:   12.8,
		BufferLat:   100,
		HILOverhead: 1 * sim.Microsecond,
		HILSlots:    4,
		Supercap:    true,
	}
}

// ULLFlashNoBuffer is the advanced-HAMS variant: internal DRAM removed
// (the NVDIMM buffers instead), command/address/data registers front
// the flash (§IV-C).
func ULLFlashNoBuffer() Config {
	c := ULLFlash()
	c.Name = "ULL-Flash (bufferless)"
	c.BufferBytes = 0
	return c
}

// NVMeSSD approximates the Intel 750 baseline: TLC-class media, fewer
// channels, a throughput-oriented firmware with higher per-command
// cost.
func NVMeSSD() Config {
	g := flash.ULLGeometry()
	g.Channels = 8
	g.PackagesPerC = 1 // 16 dies: the shallower parallelism that makes
	// its latency climb with queue depth (Fig. 5b)
	return Config{
		Name:        "NVMe-SSD",
		Geometry:    g,
		Timing:      flash.VNANDTLC(),
		FTL:         ftl.DefaultConfig(),
		BufferBytes: 512 << 20,
		BufferGBs:   8,
		BufferLat:   150,
		HILOverhead: 5 * sim.Microsecond,
		HILSlots:    8,
	}
}

// SATASSD approximates the SATA baseline (the link cost lives in
// pcie.SATA6G; media here is slower TLC with shallow parallelism).
func SATASSD() Config {
	g := flash.ULLGeometry()
	g.Channels = 4
	t := flash.VNANDTLC()
	t.ChanGBs = 0.4
	return Config{
		Name:        "SATA-SSD",
		Geometry:    g,
		Timing:      t,
		FTL:         ftl.DefaultConfig(),
		BufferBytes: 256 << 20,
		BufferGBs:   4,
		BufferLat:   300,
		HILOverhead: 20 * sim.Microsecond,
		HILSlots:    1,
	}
}

// Stats carries device-level counters.
type Stats struct {
	Reads, Writes  int64
	BufferHits     int64
	BufferMisses   int64
	BufferEvicts   int64
	Flushes        int64
	FUAWrites      int64
	DirtyLost      int64 // dirty buffer pages dropped at power failure
	BufferResident int
}

// Device is one SSD. The internal DRAM buffer is a mem.PageLRU
// (chunked slot arrays, never warmed) with slot-owned page buffers:
// inserts copy into the slot's buffer and evictions recycle it, so
// steady-state buffer traffic allocates nothing. Entries store
// variable-length data (a 64 B write replaces whatever the slot held),
// tracked in bufLen.
type Device struct {
	cfg Config
	arr *flash.Array
	ftl *ftl.FTL

	hil      *sim.Pool
	bufBus   *sim.Resource
	buf      *mem.PageLRU
	bufData  [][]byte // slot -> owned page-capacity buffer
	bufLen   []int    // slot -> stored byte count
	bufDirty []bool
	bufCap   int    // entries
	scratch  []byte // miss-path staging (one page)

	stats Stats
}

// New builds a device from cfg.
func New(cfg Config) *Device {
	if cfg.HILSlots <= 0 {
		cfg.HILSlots = 1
	}
	arr := flash.New(cfg.Geometry, cfg.Timing)
	d := &Device{
		cfg:    cfg,
		arr:    arr,
		ftl:    ftl.New(arr, cfg.FTL),
		hil:    sim.NewPool(cfg.HILSlots),
		bufBus: sim.NewResource(),
	}
	if cfg.BufferBytes > 0 {
		d.buf = mem.NewPageLRU()
		d.bufCap = int(cfg.BufferBytes / cfg.Geometry.PageBytes)
		d.scratch = make([]byte, cfg.Geometry.PageBytes)
	}
	return d
}

// Name returns the device name.
func (d *Device) Name() string { return d.cfg.Name }

// PageBytes returns the device's logical page size.
func (d *Device) PageBytes() uint64 { return d.cfg.Geometry.PageBytes }

// HasBuffer reports whether the device carries internal DRAM.
func (d *Device) HasBuffer() bool { return d.bufCap > 0 }

// Capacity returns the exported capacity in bytes.
func (d *Device) Capacity() uint64 {
	return d.ftl.ExportedPages() * d.cfg.Geometry.PageBytes
}

// Stats returns a copy of the counters with residency filled in.
func (d *Device) Stats() Stats {
	s := d.stats
	if d.buf != nil {
		s.BufferResident = d.buf.Len()
	}
	return s
}

// FTLStats exposes the translation-layer counters.
func (d *Device) FTLStats() ftl.Stats { return d.ftl.Stats() }

// FlashStats exposes the media counters (for the energy model).
func (d *Device) FlashStats() flash.Stats { return d.arr.Stats() }

// hilEnter charges firmware parse/split time.
func (d *Device) hilEnter(t sim.Time) sim.Time {
	_, done := d.hil.Acquire(t, d.cfg.HILOverhead)
	return done
}

func (d *Device) bufAccess(t sim.Time, bytes int64) sim.Time {
	_, done := d.bufBus.Acquire(t+d.cfg.BufferLat, sim.Bandwidth(bytes, d.cfg.BufferGBs))
	return done
}

// bufInsert places a page in the internal DRAM, evicting the LRU dirty
// page to flash when full. Returns the time the insert completes (the
// eviction program runs in the background on the flash resources).
func (d *Device) bufInsert(t sim.Time, lba uint64, data []byte, dirty bool) sim.Time {
	if slot, ok := d.buf.Get(lba); ok {
		d.bufLen[slot] = copy(d.bufData[slot], data)
		d.bufDirty[slot] = d.bufDirty[slot] || dirty
		d.buf.MoveToFront(slot)
		return d.bufAccess(t, int64(len(data)))
	}
	for d.buf.Len() >= d.bufCap {
		vlba, vslot := d.buf.RemoveBack()
		d.stats.BufferEvicts++
		if d.bufDirty[vslot] {
			// Background write-back: occupies flash, does not gate t.
			if _, err := d.ftl.Write(t, vlba, d.bufData[vslot][:d.bufLen[vslot]]); err != nil {
				// Media full: surface by dropping; callers see ErrFull
				// on their own writes. Data loss accounting only.
				d.stats.DirtyLost++
			}
		}
	}
	slot := d.buf.InsertFront(lba)
	for int(slot) >= len(d.bufData) {
		d.bufData = append(d.bufData, nil)
		d.bufLen = append(d.bufLen, 0)
		d.bufDirty = append(d.bufDirty, false)
	}
	if d.bufData[slot] == nil {
		d.bufData[slot] = make([]byte, d.cfg.Geometry.PageBytes)
	}
	d.bufLen[slot] = copy(d.bufData[slot], data)
	d.bufDirty[slot] = dirty
	return d.bufAccess(t, int64(len(data)))
}

// Write stores one logical page. With fua (or on a buffer-less
// device) the data is programmed to flash before completion; otherwise
// it completes once it lands in the internal DRAM.
func (d *Device) Write(t sim.Time, lba uint64, data []byte, fua bool) (sim.Time, error) {
	now := d.hilEnter(t)
	d.stats.Writes++
	if fua {
		d.stats.FUAWrites++
	}
	if d.bufCap > 0 && !fua {
		return d.bufInsert(now, lba, data, true), nil
	}
	if d.bufCap > 0 {
		// FUA on a buffered device: write through.
		done := d.bufInsert(now, lba, data, false)
		fdone, err := d.ftl.Write(done, lba, data)
		if err != nil {
			return fdone, err
		}
		if slot, ok := d.buf.Get(lba); ok {
			d.bufDirty[slot] = false
		}
		return fdone, nil
	}
	return d.ftl.Write(now, lba, data)
}

// Read returns one logical page (first `bytes` transferred; 0 = all).
func (d *Device) Read(t sim.Time, lba uint64, bytes uint32) (sim.Time, []byte) {
	n := d.PageBytes()
	if d.bufCap > 0 {
		if slot, ok := d.buf.Get(lba); ok {
			n = uint64(d.bufLen[slot])
		}
	}
	buf := make([]byte, n)
	done := d.ReadInto(t, lba, bytes, buf)
	return done, buf
}

// ReadInto performs Read without allocating: up to one page of content
// lands in dst, zero-filled past the stored bytes. A nil dst charges
// timing (and buffer-state effects) only.
func (d *Device) ReadInto(t sim.Time, lba uint64, bytes uint32, dst []byte) sim.Time {
	now := d.hilEnter(t)
	d.stats.Reads++
	n := int64(bytes)
	if n == 0 || n > int64(d.PageBytes()) {
		n = int64(d.PageBytes())
	}
	if d.bufCap > 0 {
		if slot, ok := d.buf.Get(lba); ok {
			d.stats.BufferHits++
			d.buf.MoveToFront(slot)
			m := copy(dst, d.bufData[slot][:d.bufLen[slot]])
			for i := m; i < len(dst); i++ {
				dst[i] = 0
			}
			return d.bufAccess(now, n)
		}
		d.stats.BufferMisses++
		done := d.ftl.ReadInto(now, lba, bytes, d.scratch)
		done = d.bufInsert(done, lba, d.scratch, false)
		m := copy(dst, d.scratch)
		for i := m; i < len(dst); i++ {
			dst[i] = 0
		}
		return done
	}
	return d.ftl.ReadInto(now, lba, bytes, dst)
}

// Flush forces every dirty buffered page to flash, returning when the
// last program completes.
func (d *Device) Flush(t sim.Time) sim.Time {
	d.stats.Flushes++
	now := d.hilEnter(t)
	latest := now
	if d.buf == nil {
		return latest
	}
	// Walk the LRU order (oldest first): FTL page allocation and
	// flash-channel timing depend on write order, so the flush order
	// must be deterministic run to run.
	for slot := d.buf.TailSlot(); slot >= 0; slot = d.buf.PrevOf(slot) {
		if !d.bufDirty[slot] {
			continue
		}
		done, err := d.ftl.Write(now, d.buf.PageOf(slot), d.bufData[slot][:d.bufLen[slot]])
		if err == nil {
			d.bufDirty[slot] = false
			if done > latest {
				latest = done
			}
		}
	}
	return latest
}

// Peek returns the current content of lba (buffer first, then flash)
// without any timing effect.
func (d *Device) Peek(lba uint64) []byte {
	if d.buf != nil {
		if slot, ok := d.buf.Get(lba); ok {
			return append([]byte(nil), d.bufData[slot][:d.bufLen[slot]]...)
		}
	}
	return d.ftl.Peek(lba)
}

// Trim drops lba from the buffer and the FTL mapping. Used to model a
// torn write: a DMA that was in flight when power failed leaves the
// target page unreadable until the journal replay rewrites it.
func (d *Device) Trim(lba uint64) {
	if d.buf != nil {
		if slot, ok := d.buf.Get(lba); ok {
			d.buf.Remove(slot)
		}
	}
	d.ftl.Trim(lba)
}

// DropCaches flushes dirty pages and empties the internal DRAM buffer
// (used by device characterization so reads exercise the flash path,
// as they do once the working set exceeds the 512 MB buffer).
func (d *Device) DropCaches(t sim.Time) sim.Time {
	done := d.Flush(t)
	if d.buf != nil {
		d.buf = mem.NewPageLRU() // slot buffers in bufData are reused
	}
	return done
}

// PowerFail models sudden power loss. With a supercap the internal
// DRAM is streamed to flash (data preserved); without one, dirty pages
// are lost. It returns the number of dirty pages that were at risk.
func (d *Device) PowerFail() int {
	if d.buf == nil {
		return 0
	}
	dirty := 0
	// LRU order, not insertion order: the supercap path writes to
	// flash, and write order must be deterministic (see Flush).
	for slot := d.buf.TailSlot(); slot >= 0; slot = d.buf.PrevOf(slot) {
		if !d.bufDirty[slot] {
			continue
		}
		dirty++
		if d.cfg.Supercap {
			if _, err := d.ftl.Write(0, d.buf.PageOf(slot), d.bufData[slot][:d.bufLen[slot]]); err == nil {
				d.bufDirty[slot] = false
				continue
			}
		}
		d.stats.DirtyLost++
	}
	if !d.cfg.Supercap {
		// Volatile buffer contents are gone.
		d.buf = mem.NewPageLRU()
	}
	return dirty
}

// DirtyLost reports pages dropped across the device's lifetime.
func (d *Device) DirtyLost() int64 { return d.stats.DirtyLost }

func (d *Device) String() string {
	return fmt.Sprintf("%s(%.0fGB, buffer %dMB)", d.cfg.Name,
		float64(d.Capacity())/(1<<30), d.cfg.BufferBytes>>20)
}
