package ssd

import (
	"fmt"

	"hams/internal/checkpoint"
)

// SaveState serializes the device: the flash array and FTL, the HIL
// pool and buffer-bus horizons, the internal DRAM buffer (recency
// index plus every slot's payload and dirty bit) and the activity
// stats. The miss-path scratch page is host-side staging and is not
// serialized.
func (d *Device) SaveState(enc *checkpoint.Enc) {
	d.arr.SaveState(enc)
	d.ftl.SaveState(enc)
	d.hil.SaveState(enc)
	d.bufBus.SaveState(enc)
	enc.Bool(d.buf != nil)
	if d.buf != nil {
		d.buf.SaveState(enc)
		enc.Count(len(d.bufData))
		for i := range d.bufData {
			// Page-compressed: a read-mostly buffer is dominated by the
			// zero pages that reads of never-written LBAs return.
			enc.Page(d.bufData[i][:d.bufLen[i]])
			enc.Bool(d.bufDirty[i])
		}
	}
	enc.I64(d.stats.Reads)
	enc.I64(d.stats.Writes)
	enc.I64(d.stats.BufferHits)
	enc.I64(d.stats.BufferMisses)
	enc.I64(d.stats.BufferEvicts)
	enc.I64(d.stats.Flushes)
	enc.I64(d.stats.FUAWrites)
	enc.I64(d.stats.DirtyLost)
	enc.I64(int64(d.stats.BufferResident))
}

// RestoreState overlays the device. Buffer presence is structural
// (BufferBytes in the config); slot payloads are validated against the
// page size.
func (d *Device) RestoreState(dec *checkpoint.Dec) error {
	if err := d.arr.RestoreState(dec); err != nil {
		return err
	}
	if err := d.ftl.RestoreState(dec); err != nil {
		return err
	}
	if err := d.hil.RestoreState(dec); err != nil {
		return err
	}
	if err := d.bufBus.RestoreState(dec); err != nil {
		return err
	}
	hasBuf := dec.Bool()
	if err := dec.Err(); err != nil {
		return err
	}
	if hasBuf != (d.buf != nil) {
		return fmt.Errorf("%w: internal buffer presence mismatch", checkpoint.ErrMismatch)
	}
	if d.buf != nil {
		if err := d.buf.RestoreState(dec); err != nil {
			return err
		}
		slots := dec.Count(d.bufCap)
		if err := dec.Err(); err != nil {
			return err
		}
		pageBytes := int(d.cfg.Geometry.PageBytes)
		d.bufData = d.bufData[:0]
		d.bufLen = d.bufLen[:0]
		d.bufDirty = d.bufDirty[:0]
		for i := 0; i < slots; i++ {
			p := dec.Page(pageBytes)
			dirty := dec.Bool()
			if err := dec.Err(); err != nil {
				return err
			}
			// Dec.Page already returns a fresh buffer; adopt it directly
			// (restore is allocation-bound) and pad only short payloads
			// up to the full slot size writes expect.
			data := p
			if len(p) != pageBytes {
				data = make([]byte, pageBytes)
				copy(data, p)
			}
			d.bufData = append(d.bufData, data)
			d.bufLen = append(d.bufLen, len(p))
			d.bufDirty = append(d.bufDirty, dirty)
		}
		if slots != d.buf.Slots() {
			return fmt.Errorf("%w: %d buffer payloads for %d LRU slots", checkpoint.ErrCorrupt, slots, d.buf.Slots())
		}
	}
	d.stats.Reads = dec.I64()
	d.stats.Writes = dec.I64()
	d.stats.BufferHits = dec.I64()
	d.stats.BufferMisses = dec.I64()
	d.stats.BufferEvicts = dec.I64()
	d.stats.Flushes = dec.I64()
	d.stats.FUAWrites = dec.I64()
	d.stats.DirtyLost = dec.I64()
	d.stats.BufferResident = int(dec.I64())
	return dec.Err()
}
