package ftl

import (
	"fmt"

	"hams/internal/checkpoint"
	"hams/internal/flash"
)

// saveIdxMap serializes a radix table: chunk count, then for each
// materialized chunk its index and raw values.
func saveIdxMap(enc *checkpoint.Enc, m *idxMap) {
	live := 0
	for _, c := range m.chunks {
		if c != nil {
			live++
		}
	}
	enc.Count(len(m.chunks))
	enc.Count(live)
	for ci, c := range m.chunks {
		if c == nil {
			continue
		}
		enc.U64(uint64(ci))
		for _, v := range c {
			enc.U64(v)
		}
	}
}

// maxIdxChunks caps the radix spine a restored map may span: 1<<21
// chunks of 256 keys cover half a billion LBAs/PPNs, ~2.5x the 800 GB
// geometry, while bounding the spine allocation a hostile image can
// force to ~50 MB.
const maxIdxChunks = 1 << 21

// restoreIdxMap replaces a radix table from the wire. The live-chunk
// count is bounded by the bytes remaining (each live chunk costs
// 8 + 8*256 wire bytes); the spine length by maxIdxChunks.
func restoreIdxMap(d *checkpoint.Dec, m *idxMap) error {
	total := d.Count(maxIdxChunks)
	live := d.CountSized(8 + 8*idxChunkSize)
	if err := d.Err(); err != nil {
		return err
	}
	m.chunks = make([][]uint64, total)
	for i := 0; i < live; i++ {
		ci := d.U64()
		if err := d.Err(); err != nil {
			return err
		}
		if ci >= uint64(total) {
			return fmt.Errorf("%w: idxMap chunk %d out of range", checkpoint.ErrCorrupt, ci)
		}
		c := make([]uint64, idxChunkSize)
		for j := range c {
			c[j] = d.U64()
		}
		m.chunks[ci] = c
	}
	return d.Err()
}

// SaveState serializes the translation layer: both radix maps, the
// free-block bookkeeping (virgin counters, recycled FIFOs), active-
// block cursors, the allocation round-robin cursor and the activity
// stats. Valid-page counts are derivable from p2l, so RestoreState
// rebuilds them instead of reading them from the wire; the GC staging
// buffer is host-side scratch. Neither is serialized.
func (f *FTL) SaveState(enc *checkpoint.Enc) {
	saveIdxMap(enc, &f.l2p)
	saveIdxMap(enc, &f.p2l)
	enc.Count(len(f.virginNext))
	for _, v := range f.virginNext {
		enc.I64(int64(v))
	}
	for _, r := range f.recycled {
		enc.Count(len(r))
		for _, b := range r {
			enc.I64(int64(b))
		}
	}
	enc.Count(len(f.active))
	for _, a := range f.active {
		enc.I64(int64(a.block))
		enc.I64(int64(a.nextPage))
	}
	enc.I64(int64(f.planeRR))
	enc.I64(f.stats.HostReads)
	enc.I64(f.stats.HostWrites)
	enc.I64(f.stats.GCWrites)
	enc.I64(f.stats.GCRuns)
	enc.I64(f.stats.Erases)
	enc.I64(f.stats.UnmappedRead)
}

// RestoreState replaces the translation layer's state with the
// image's. The plane count is structural (derived from the geometry at
// construction). Every cursor, block id and mapping is checked against
// the geometry before it is used, so an image that would index outside
// the block table, or size it, fails here with ErrCorrupt instead of
// panicking on a later write. The image is decoded into a fresh FTL
// and adopted only once every check passes: a rejected image leaves f
// as it was.
func (f *FTL) RestoreState(d *checkpoint.Dec) error {
	r := New(f.arr, f.cfg)
	if err := r.restore(d); err != nil {
		return err
	}
	*f = *r
	return nil
}

func (f *FTL) restore(d *checkpoint.Dec) error {
	if err := restoreIdxMap(d, &f.l2p); err != nil {
		return err
	}
	if err := restoreIdxMap(d, &f.p2l); err != nil {
		return err
	}
	if err := structuralCount(d, "planes", len(f.virginNext)); err != nil {
		return err
	}
	for p := range f.virginNext {
		v := d.I64()
		if v < 0 || v > int64(f.geo.BlocksPerPln) {
			return fmt.Errorf("%w: plane %d virgin cursor %d outside [0, %d]",
				checkpoint.ErrCorrupt, p, v, f.geo.BlocksPerPln)
		}
		f.virginNext[p] = int(v)
		f.valid[p] = make([]int32, v)
	}
	for p := range f.recycled {
		n := d.Count(f.virginNext[p])
		if err := d.Err(); err != nil {
			return err
		}
		f.recycled[p] = make([]int, n)
		for i := range f.recycled[p] {
			b := d.I64()
			if b < 0 || b >= int64(f.virginNext[p]) || f.valid[p][b] == freeBlock {
				return fmt.Errorf("%w: plane %d recycles block %d twice or before allocating it",
					checkpoint.ErrCorrupt, p, b)
			}
			f.valid[p][b] = freeBlock
			f.recycled[p][i] = int(b)
		}
	}
	if err := structuralCount(d, "active blocks", len(f.active)); err != nil {
		return err
	}
	for p := range f.active {
		b, next := d.I64(), d.I64()
		if b < -1 || b >= int64(f.virginNext[p]) || b >= 0 && f.valid[p][b] == freeBlock ||
			next < 0 || next > int64(f.geo.PagesPerBlk) {
			return fmt.Errorf("%w: plane %d active block %d at page %d",
				checkpoint.ErrCorrupt, p, b, next)
		}
		f.active[p] = activeBlock{block: int(b), nextPage: int(next)}
	}
	rr := d.I64()
	if rr < 0 || rr >= int64(len(f.active)) {
		return fmt.Errorf("%w: plane cursor %d out of range", checkpoint.ErrCorrupt, rr)
	}
	f.planeRR = int(rr)
	f.stats.HostReads = d.I64()
	f.stats.HostWrites = d.I64()
	f.stats.GCWrites = d.I64()
	f.stats.GCRuns = d.I64()
	f.stats.Erases = d.I64()
	f.stats.UnmappedRead = d.I64()
	if err := d.Err(); err != nil {
		return err
	}
	return f.rebuildValid()
}

// rebuildValid derives the valid-page counts from p2l, checking on the
// way that l2p and p2l are inverse maps and that every live page lies
// inside the geometry, in an allocated block, and (in an active block)
// below the write cursor.
func (f *FTL) rebuildValid() error {
	total := f.geo.TotalPages()
	for ci, c := range f.p2l.chunks {
		for i, lba := range c {
			if lba == idxNone {
				continue
			}
			ppn := uint64(ci)<<idxChunkBits | uint64(i)
			if ppn >= total {
				return fmt.Errorf("%w: live page %d beyond the geometry", checkpoint.ErrCorrupt, ppn)
			}
			if back, ok := f.l2p.get(lba); !ok || back != ppn {
				return fmt.Errorf("%w: p2l maps page %d to lba %d, l2p disagrees",
					checkpoint.ErrCorrupt, ppn, lba)
			}
			ad := f.geo.Decompose(flash.PPN(ppn))
			plane := f.planeOf(ad)
			v, act := f.valid[plane], f.active[plane]
			if ad.Block >= len(v) || v[ad.Block] == freeBlock ||
				ad.Block == act.block && ad.Page >= act.nextPage {
				return fmt.Errorf("%w: live page %d in a free or unwritten block",
					checkpoint.ErrCorrupt, ppn)
			}
			v[ad.Block]++
		}
	}
	for ci, c := range f.l2p.chunks {
		for i, ppn := range c {
			if ppn == idxNone {
				continue
			}
			lba := uint64(ci)<<idxChunkBits | uint64(i)
			if back, ok := f.p2l.get(ppn); !ok || back != lba {
				return fmt.Errorf("%w: l2p maps lba %d to page %d, p2l disagrees",
					checkpoint.ErrCorrupt, lba, ppn)
			}
		}
	}
	return nil
}

func structuralCount(d *checkpoint.Dec, what string, want int) error {
	n := d.Count(want)
	if err := d.Err(); err != nil {
		return err
	}
	if n != want {
		return fmt.Errorf("%w: %s count %d, want %d", checkpoint.ErrMismatch, what, n, want)
	}
	return nil
}
