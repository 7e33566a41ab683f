package dram

import (
	"fmt"

	"hams/internal/checkpoint"
	"hams/internal/mem"
	"hams/internal/sim"
)

// SaveState serializes the channel's mutable state: per-bank open rows
// and horizons, the bus server, the activity counters, and (for
// functional channels) the full backing store.
func (d *DDR4) SaveState(enc *checkpoint.Enc) {
	enc.Count(len(d.banks))
	for i := range d.banks {
		enc.I64(d.banks[i].openRow)
		enc.I64(int64(d.banks[i].nextFree))
	}
	d.bus.SaveState(enc)
	s := &d.stats
	enc.I64(s.Reads)
	enc.I64(s.Writes)
	enc.I64(s.RowHits)
	enc.I64(s.RowMisses)
	enc.I64(s.BytesRead)
	enc.I64(s.BytesWrite)
	enc.I64(s.BulkOps)
	enc.I64(int64(s.BusBusy))
	enc.I64(int64(s.TotalAccess))
	enc.Bool(d.store != nil)
	if d.store != nil {
		d.store.SaveState(enc)
	}
}

// RestoreState overlays the channel. Bank count and functionality are
// structural (from configuration), so mismatches are refused.
func (d *DDR4) RestoreState(dec *checkpoint.Dec) error {
	n := dec.Count(len(d.banks))
	if err := dec.Err(); err != nil {
		return err
	}
	if n != len(d.banks) {
		return fmt.Errorf("%w: channel has %d banks, image has %d", checkpoint.ErrMismatch, len(d.banks), n)
	}
	for i := range d.banks {
		d.banks[i].openRow = dec.I64()
		d.banks[i].nextFree = sim.Time(dec.I64())
	}
	if err := d.bus.RestoreState(dec); err != nil {
		return err
	}
	s := &d.stats
	s.Reads = dec.I64()
	s.Writes = dec.I64()
	s.RowHits = dec.I64()
	s.RowMisses = dec.I64()
	s.BytesRead = dec.I64()
	s.BytesWrite = dec.I64()
	s.BulkOps = dec.I64()
	s.BusBusy = sim.Time(dec.I64())
	s.TotalAccess = sim.Time(dec.I64())
	functional := dec.Bool()
	if err := dec.Err(); err != nil {
		return err
	}
	if functional != (d.store != nil) {
		return fmt.Errorf("%w: functional channel mismatch", checkpoint.ErrMismatch)
	}
	if d.store != nil {
		return d.store.RestoreState(dec)
	}
	return nil
}

// SaveState serializes the module: the DRAM channel plus the NVDIMM
// lifecycle state (backup image, counters).
func (n *NVDIMM) SaveState(enc *checkpoint.Enc) {
	n.DDR4.SaveState(enc)
	enc.I64(int64(n.backups))
	enc.I64(int64(n.restores))
	enc.I64(int64(n.backupTime))
	enc.Bool(n.image != nil)
	if n.image != nil {
		n.image.SaveState(enc)
	}
}

// RestoreState overlays the module.
func (n *NVDIMM) RestoreState(dec *checkpoint.Dec) error {
	if err := n.DDR4.RestoreState(dec); err != nil {
		return err
	}
	n.backups = int(dec.I64())
	n.restores = int(dec.I64())
	n.backupTime = sim.Time(dec.I64())
	hasImage := dec.Bool()
	if err := dec.Err(); err != nil {
		return err
	}
	if !hasImage {
		n.image = nil
		return nil
	}
	n.image = mem.NewSparseStore()
	return n.image.RestoreState(dec)
}
