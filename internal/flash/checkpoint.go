package flash

import (
	"fmt"
	"sort"

	"hams/internal/checkpoint"
	"hams/internal/sim"
)

// SaveState serializes the array: per-die and per-channel timing
// horizons, every programmed page (sorted by PPN for a deterministic
// wire image), the per-block wear counters and the activity stats. The
// free-buffer recycling pool is host-side scratch with no simulated
// effect and is not serialized. A stale page (see Discard) keeps its
// programmed status on the wire — it gates re-programming until an
// erase — as an empty payload, so the image carries live data only.
func (a *Array) SaveState(enc *checkpoint.Enc) {
	enc.Count(len(a.dies))
	for _, d := range a.dies {
		enc.I64(int64(d))
	}
	enc.Count(len(a.chans))
	for _, c := range a.chans {
		c.SaveState(enc)
	}
	ppns := make([]uint64, 0, len(a.data))
	for p := range a.data {
		ppns = append(ppns, uint64(p))
	}
	sort.Slice(ppns, func(i, j int) bool { return ppns[i] < ppns[j] })
	enc.Count(len(ppns))
	for _, p := range ppns {
		enc.U64(p)
		enc.Page(a.data[PPN(p)])
	}
	blocks := make([]uint64, 0, len(a.erases))
	for b := range a.erases {
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	enc.Count(len(blocks))
	for _, b := range blocks {
		enc.U64(b)
		enc.I64(a.erases[b])
	}
	enc.I64(a.stats.Reads)
	enc.I64(a.stats.Programs)
	enc.I64(a.stats.Erases)
	enc.I64(a.stats.BytesIn)
	enc.I64(a.stats.BytesOut)
	enc.I64(int64(a.stats.DieBusy))
}

// RestoreState overlays the array. Die/channel counts are structural;
// page payload lengths are validated against the geometry's page size.
func (a *Array) RestoreState(d *checkpoint.Dec) error {
	if err := restoreCount(d, "dies", len(a.dies)); err != nil {
		return err
	}
	for i := range a.dies {
		a.dies[i] = sim.Time(d.I64())
	}
	if err := restoreCount(d, "channels", len(a.chans)); err != nil {
		return err
	}
	for _, c := range a.chans {
		if err := c.RestoreState(d); err != nil {
			return err
		}
	}
	npages := d.CountSized(8)
	if err := d.Err(); err != nil {
		return err
	}
	a.data = make(map[PPN][]byte, npages)
	for i := 0; i < npages; i++ {
		p := d.U64()
		pg := d.Page(int(a.Geo.PageBytes))
		if err := d.Err(); err != nil {
			return err
		}
		// Programs always store a full page; an empty payload is a
		// stale page (presence still gates re-programming). Anything
		// else is a corrupt image.
		switch {
		case len(pg) == 0:
			pg = nil
		case uint64(len(pg)) != a.Geo.PageBytes:
			return fmt.Errorf("%w: page %d holds %d bytes (page is %d)",
				checkpoint.ErrCorrupt, p, len(pg), a.Geo.PageBytes)
		}
		a.data[PPN(p)] = pg
	}
	nblocks := d.CountSized(16)
	if err := d.Err(); err != nil {
		return err
	}
	a.erases = make(map[uint64]int64, nblocks)
	for i := 0; i < nblocks; i++ {
		b := d.U64()
		a.erases[b] = d.I64()
	}
	a.stats.Reads = d.I64()
	a.stats.Programs = d.I64()
	a.stats.Erases = d.I64()
	a.stats.BytesIn = d.I64()
	a.stats.BytesOut = d.I64()
	a.stats.DieBusy = sim.Time(d.I64())
	return d.Err()
}

// restoreCount reads a count that must equal a structural size.
func restoreCount(d *checkpoint.Dec, what string, want int) error {
	n := d.Count(want)
	if err := d.Err(); err != nil {
		return err
	}
	if n != want {
		return fmt.Errorf("%w: %s count %d, want %d", checkpoint.ErrMismatch, what, n, want)
	}
	return nil
}
