package mem

import (
	"fmt"

	"hams/internal/checkpoint"
)

// maxRestoredFrames caps the frames a single image may materialize
// (4 GiB of store). Zero-compressed frames cost ~17 wire bytes, so
// without a cap a hostile 2 GiB section could demand terabytes.
const maxRestoredFrames = 1 << 20

// SaveState serializes the resident frame set: frame count, then
// (fid, 4 KiB payload) pairs in ascending fid order — deterministic by
// construction because the radix table iterates in index order.
// Payloads go through Enc.Page, so the all-zero frames cold fills
// leave behind cost a flag on the wire instead of 4 KiB.
func (s *SparseStore) SaveState(enc *checkpoint.Enc) {
	enc.Count(s.n)
	for ci, ch := range s.chunks {
		if ch == nil {
			continue
		}
		for i, f := range ch {
			if f == nil {
				continue
			}
			enc.U64(uint64(ci)<<framesPerChunkBits | uint64(i))
			enc.Page(f[:])
		}
	}
}

// RestoreState replaces the store's contents with the image's frames.
// The frame count is bounded by the bytes remaining at the minimum
// wire cost of a frame (8-byte fid + zero-compressed page) and by
// maxRestoredFrames, so no unvalidated count sizes an allocation.
func (s *SparseStore) RestoreState(d *checkpoint.Dec) error {
	n := d.CountSized(8 + 9)
	if err := d.Err(); err != nil {
		return err
	}
	if n > maxRestoredFrames {
		return fmt.Errorf("%w: %d frames exceeds limit %d", checkpoint.ErrCorrupt, n, maxRestoredFrames)
	}
	s.chunks = s.chunks[:0]
	s.n = 0
	for i := 0; i < n; i++ {
		fid := d.U64()
		if err := d.Err(); err != nil {
			return err
		}
		// Cap the frame id so a hostile image cannot force the radix
		// spine to balloon: 1<<28 frames covers a 1 TiB address space,
		// far beyond any store the simulator builds.
		if fid >= 1<<28 {
			return fmt.Errorf("%w: frame id %d exceeds limit", checkpoint.ErrCorrupt, fid)
		}
		// PageInto decodes straight into the frame — restore of a
		// multi-GB store is allocation-bound, so no staging buffer.
		d.PageInto(s.ensureFrame(fid)[:])
		if err := d.Err(); err != nil {
			return err
		}
	}
	return d.Err()
}

// SaveState serializes the recency structure: the slot arrays, list
// heads and free list, with the entries of computed chunks written out
// as values. The radix index is derivable (it maps pages back to live
// slots), so it is rebuilt on restore rather than serialized.
func (l *PageLRU) SaveState(enc *checkpoint.Enc) {
	enc.Count(l.Slots())
	for s := range l.nslots {
		enc.U64(l.PageOf(s))
	}
	for s := range l.nslots {
		enc.I64(int64(l.PrevOf(s)))
	}
	for s := range l.nslots {
		enc.I64(int64(l.nextOf(s)))
	}
	enc.I64(int64(l.head))
	enc.I64(int64(l.tail))
	enc.Count(len(l.free))
	for _, v := range l.free {
		enc.I64(int64(v))
	}
	enc.Count(l.n)
}

// RestoreState replaces the recency structure with the image's, every
// chunk stored and no runs, and rebuilds the radix index from the live
// slots. The slot count is bounded by the bytes remaining (each slot
// costs 24 wire bytes across the three arrays). The list must be one
// the index could have built — a corrupt link would otherwise restore
// cleanly and crash the first insert or eviction.
func (l *PageLRU) RestoreState(d *checkpoint.Dec) error {
	slots := d.CountSized(24)
	if err := d.Err(); err != nil {
		return err
	}
	*l = PageLRU{
		chunks: l.chunks[:0],
		slots:  make([]lruSlots, (slots+lruSlotMask)>>lruSlotBits),
		nslots: int32(slots),
	}
	for k := range l.slots {
		l.slots[k].e = new(lruEntries)
	}
	for s := range l.nslots {
		l.slots[s>>lruSlotBits].e.pages[s&lruSlotMask] = d.U64()
	}
	for s := range l.nslots {
		l.slots[s>>lruSlotBits].e.prev[s&lruSlotMask] = int32(d.I64())
	}
	for s := range l.nslots {
		l.slots[s>>lruSlotBits].e.next[s&lruSlotMask] = int32(d.I64())
	}
	l.head = int32(d.I64())
	l.tail = int32(d.I64())
	nfree := d.Count(slots)
	l.free = make([]int32, nfree)
	for i := range l.free {
		l.free[i] = int32(d.I64())
	}
	l.n = d.Count(slots)
	if err := d.Err(); err != nil {
		return err
	}
	return l.checkList()
}

// checkList verifies a restored list and indexes its live slots: the
// free slots are distinct and, with the n live ones, fill the slot
// space; walking from the tail toward the front visits exactly the n
// live slots, each once, with next the inverse of prev, and ends at
// the head; and no page is live twice.
func (l *PageLRU) checkList() error {
	const (
		live = iota
		free
		seen
	)
	state := make([]uint8, l.nslots)
	for _, f := range l.free {
		if f < 0 || f >= l.nslots || state[f] != live {
			return fmt.Errorf("%w: free slot %d out of range or repeated", checkpoint.ErrCorrupt, f)
		}
		state[f] = free
	}
	if l.n+len(l.free) != int(l.nslots) {
		return fmt.Errorf("%w: %d live and %d free slots in a space of %d", checkpoint.ErrCorrupt, l.n, len(l.free), l.nslots)
	}
	older, count := int32(-1), 0
	for s := l.tail; s != -1; s = l.PrevOf(s) {
		if count == l.n || s < 0 || s >= l.nslots || state[s] != live {
			return fmt.Errorf("%w: recency list reaches slot %d after %d of %d live slots", checkpoint.ErrCorrupt, s, count, l.n)
		}
		if l.nextOf(s) != older {
			return fmt.Errorf("%w: slot %d links back to %d, not %d", checkpoint.ErrCorrupt, s, l.nextOf(s), older)
		}
		state[s] = seen
		older = s
		count++
	}
	if count != l.n || older != l.head {
		return fmt.Errorf("%w: recency list ends at slot %d after %d slots, head %d of %d", checkpoint.ErrCorrupt, older, count, l.head, l.n)
	}
	for s := range l.nslots {
		if state[s] != seen {
			continue
		}
		// Cap the page number so a hostile image cannot force the
		// radix spine to balloon (1<<32 pages covers every page
		// space the simulator indexes).
		page := l.PageOf(s)
		if page >= 1<<32 {
			return fmt.Errorf("%w: page %d exceeds limit", checkpoint.ErrCorrupt, page)
		}
		if _, dup := l.Get(page); dup {
			return fmt.Errorf("%w: page %d live twice", checkpoint.ErrCorrupt, page)
		}
		l.indexChunk(page >> lruChunkBits)[page&lruChunkMask] = s + 1
	}
	return nil
}
