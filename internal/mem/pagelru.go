package mem

import "slices"

// PageLRU is an allocation-light LRU index over a sparse page-number
// key space, shared by the simulator's big page caches (the OS page
// cache, the baseline DRAM caches, the SSD internal buffer). It
// replaces the map[uint64]*entry + container/list pattern: slots are
// threaded into an intrusive doubly-linked list whose page/prev/next
// arrays live in fixed-size chunks allocated on first write, and the
// page→slot lookup is a lazily allocated chunked radix table — so
// steady-state insert/touch/evict traffic allocates nothing and leaves
// no per-entry pointers for the garbage collector to trace.
//
// Warm installs each stretch of consecutive absent pages as one run:
// the slots and recency order of inserting the pages one at a time,
// recorded as (first page, first slot, length). The slot chunks inside
// a run are computed from that record until the first write into one
// stores it, so warming costs O(regions) rather than O(pages) and a
// cell pays only for the chunks it touches.
//
// PageLRU stores only the recency order; callers keep per-slot payload
// (dirty bits, data buffers) in their own slices indexed by the slot
// numbers PageLRU hands out. Slot numbers are stable for the lifetime
// of the entry and are recycled after removal.
type PageLRU struct {
	chunks     [][]int32  // page>>lruChunkBits → chunk; entry = slot+1, 0 = absent
	slots      []lruSlots // slot>>lruSlotBits → slot chunk
	nslots     int32      // size of the slot space
	runs       []lruRun   // the computed slot chunks, by ascending page
	head, tail int32      // front (most recent) / back (least recent); -1 = empty
	free       []int32    // recycled slots
	n          int
}

// lruSlots is one chunk of the slot arrays. While e is nil the chunk
// lies inside a run and has never been written: slot i of it holds
// page first+i, and its neighbours are the adjacent slots (prev =
// slot+1, next = slot-1), as inserting the run's pages one at a time
// in ascending order leaves them. A run's two end chunks are always
// stored, so the run's links to the rest of the list are never
// computed.
type lruSlots struct {
	e     *lruEntries
	first uint64
}

type lruEntries struct {
	pages      [lruSlotChunk]uint64
	prev, next [lruSlotChunk]int32 // prev points toward the front (MRU)
}

// lruRun covers whole computed slot chunks: slots slot, slot+1, …
// hold pages page, page+1, … (n of each), none of them in the index.
// Runs hold resident pages, so their page ranges are disjoint.
type lruRun struct {
	page    uint64
	slot, n int32
}

const (
	lruChunkBits = 14
	lruChunkSize = 1 << lruChunkBits
	lruChunkMask = lruChunkSize - 1

	// A slot chunk is small enough that a cell touching a few thousand
	// random pages of a warmed gigabyte stores a fraction of it, and
	// large enough that an 8 GiB cache needs only 2,048 chunks.
	lruSlotBits  = 10
	lruSlotChunk = 1 << lruSlotBits
	lruSlotMask  = lruSlotChunk - 1
)

// NewPageLRU returns an empty index.
func NewPageLRU() *PageLRU {
	return &PageLRU{head: -1, tail: -1}
}

// Len returns the number of resident pages.
func (l *PageLRU) Len() int { return l.n }

// Slots returns the size of the slot space; callers size their payload
// slices to it.
func (l *PageLRU) Slots() int { return int(l.nslots) }

// Get returns the slot holding page, without touching recency.
func (l *PageLRU) Get(page uint64) (int32, bool) {
	if ci := page >> lruChunkBits; ci < uint64(len(l.chunks)) && l.chunks[ci] != nil {
		if v := l.chunks[ci][page&lruChunkMask]; v != 0 {
			return v - 1, true
		}
	}
	if i := l.runAt(page); i < len(l.runs) && l.runs[i].page <= page {
		return l.runs[i].slot + int32(page-l.runs[i].page), true
	}
	return 0, false
}

// runAt returns the index of the first run that ends after page.
func (l *PageLRU) runAt(page uint64) int {
	lo, hi := 0, len(l.runs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if r := &l.runs[m]; r.page+uint64(r.n) <= page {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// PageOf returns the page held by slot.
func (l *PageLRU) PageOf(slot int32) uint64 {
	c := &l.slots[slot>>lruSlotBits]
	if c.e == nil {
		return c.first + uint64(slot&lruSlotMask)
	}
	return c.e.pages[slot&lruSlotMask]
}

// at returns the entries of slot's chunk (slot&lruSlotMask indexes
// them), storing the chunk first if a run still computes it. The path
// where the chunk is stored inlines.
func (l *PageLRU) at(slot int32) *lruEntries {
	if e := l.slots[slot>>lruSlotBits].e; e != nil {
		return e
	}
	return l.store(slot >> lruSlotBits)
}

// store writes out computed chunk k — its entries and their index
// entries — and cuts it out of its run.
func (l *PageLRU) store(k int32) *lruEntries {
	c := &l.slots[k]
	c.e = new(lruEntries)
	l.fill(k<<lruSlotBits, (k+1)<<lruSlotBits, c.first)
	i := l.runAt(c.first)
	r := &l.runs[i]
	left := int32(c.first - r.page)
	right := lruRun{page: c.first + lruSlotChunk, slot: r.slot + left + lruSlotChunk, n: r.n - left - lruSlotChunk}
	switch {
	case left == 0 && right.n == 0:
		l.runs = slices.Delete(l.runs, i, i+1)
	case left == 0:
		*r = right
	case right.n == 0:
		r.n = left
	default:
		r.n = left
		l.runs = slices.Insert(l.runs, i+1, right)
	}
	return c.e
}

// fill writes slots [lo, hi), all in one stored chunk, as part of a
// run holding page, page+1, …: each linked to its neighbours and
// indexed.
func (l *PageLRU) fill(lo, hi int32, page uint64) {
	e := l.slots[lo>>lruSlotBits].e
	for s := lo; s < hi; s++ {
		i := s & lruSlotMask
		e.pages[i], e.prev[i], e.next[i] = page+uint64(s-lo), s+1, s-1
	}
	for s := lo; s < hi; {
		ch := l.indexChunk(page >> lruChunkBits)
		for j := page & lruChunkMask; j < lruChunkSize && s < hi; j++ {
			ch[j] = s + 1
			s++
			page++
		}
	}
}

// MoveToFront marks slot most recently used.
func (l *PageLRU) MoveToFront(slot int32) {
	if l.head == slot {
		return
	}
	// slot is not the front, so it has a newer neighbour p, and the
	// list keeps a front after slot leaves it.
	e, i := l.at(slot), slot&lruSlotMask
	p, nx := e.prev[i], e.next[i]
	l.at(p).next[p&lruSlotMask] = nx
	if nx >= 0 {
		l.at(nx).prev[nx&lruSlotMask] = p
	} else {
		l.tail = p
	}
	e.prev[i], e.next[i] = -1, l.head
	l.at(l.head).prev[l.head&lruSlotMask] = slot
	l.head = slot
}

// indexChunk returns index chunk ci, allocating it (and the spine up
// to it) on first use.
func (l *PageLRU) indexChunk(ci uint64) []int32 {
	for uint64(len(l.chunks)) <= ci {
		l.chunks = append(l.chunks, nil)
	}
	if l.chunks[ci] == nil {
		l.chunks[ci] = make([]int32, lruChunkSize)
	}
	return l.chunks[ci]
}

// InsertFront inserts page (which must not be resident) at the front
// and returns its slot. When the slot space grew, the returned slot
// equals the previous Slots() value — callers grow payload slices in
// step.
func (l *PageLRU) InsertFront(page uint64) int32 {
	var slot int32
	if k := len(l.free); k > 0 {
		slot = l.free[k-1]
		l.free = l.free[:k-1]
	} else {
		slot = l.nslots
		l.nslots++
		if slot&lruSlotMask == 0 {
			l.slots = append(l.slots, lruSlots{e: new(lruEntries)})
		}
	}
	e, i := l.at(slot), slot&lruSlotMask
	e.pages[i], e.prev[i], e.next[i] = page, -1, l.head
	if l.head >= 0 {
		l.at(l.head).prev[l.head&lruSlotMask] = slot
	} else {
		l.tail = slot
	}
	l.head = slot
	l.indexChunk(page >> lruChunkBits)[page&lruChunkMask] = slot + 1
	l.n++
	return slot
}

// insertRun inserts the n pages first, first+1, … (none of them
// resident) with the effect of n InsertFront calls in that order: the
// same slots, recency order, Len and Slots. Recycled slots are taken
// first, one InsertFront each; the rest extend the slot space as a run
// whose first and last chunks are written now and whose chunks in
// between stay computed.
func (l *PageLRU) insertRun(first uint64, n int) {
	for ; n > 0 && len(l.free) > 0; n-- {
		l.InsertFront(first)
		first++
	}
	if n == 0 {
		return
	}
	lo, hi := l.nslots, l.nslots+int32(n)
	klo, khi := lo>>lruSlotBits, (hi-1)>>lruSlotBits
	for k := int32(len(l.slots)); k <= khi; k++ {
		if k == klo || k == khi {
			l.slots = append(l.slots, lruSlots{e: new(lruEntries)})
		} else {
			l.slots = append(l.slots, lruSlots{first: first + uint64(k<<lruSlotBits-lo)})
		}
	}
	l.nslots = hi
	l.fill(lo, min(hi, (klo+1)<<lruSlotBits), first)
	if khi > klo {
		l.fill(khi<<lruSlotBits, hi, first+uint64(khi<<lruSlotBits-lo))
	}
	if khi > klo+1 {
		s := (klo + 1) << lruSlotBits
		r := lruRun{page: first + uint64(s-lo), slot: s, n: (khi - klo - 1) << lruSlotBits}
		l.runs = slices.Insert(l.runs, l.runAt(r.page), r)
	}
	// Link the run's ends: its first slot goes behind the old front, its
	// last slot becomes the front.
	l.at(lo).next[lo&lruSlotMask] = l.head
	if l.head >= 0 {
		l.at(l.head).prev[l.head&lruSlotMask] = lo
	}
	if l.tail < 0 {
		l.tail = lo
	}
	l.at(hi - 1).prev[(hi-1)&lruSlotMask] = -1
	l.head = hi - 1
	l.n += n
}

// Warm walks the pages [first, end) in ascending order until Len
// reaches capacity, moving each resident page to the front and
// inserting the others at the front — the same result as one
// Get/MoveToFront or InsertFront per page, but each stretch of absent
// pages goes in as one run. Callers grow payload slices to Slots();
// recycled slots hold whatever payload their last page left behind.
func (l *PageLRU) Warm(first, end uint64, capacity int) {
	for first < end && l.n < capacity {
		r := l.nextResident(first, end)
		if k := min(r-first, uint64(capacity-l.n)); k > 0 {
			l.insertRun(first, int(k))
			first += k
			continue
		}
		slot, _ := l.Get(first)
		l.MoveToFront(slot)
		first++
	}
}

// nextResident returns the first resident page in [lo, hi), or hi. Runs
// hold pages the index does not, so the first run ending after lo
// bounds the index scan, which skips absent index chunks whole.
func (l *PageLRU) nextResident(lo, hi uint64) uint64 {
	if i := l.runAt(lo); i < len(l.runs) {
		hi = min(hi, max(lo, l.runs[i].page))
	}
	for lo < hi {
		ci := lo >> lruChunkBits
		if ci >= uint64(len(l.chunks)) {
			break
		}
		end := min(hi, (ci+1)<<lruChunkBits)
		if ch := l.chunks[ci]; ch != nil {
			for ; lo < end; lo++ {
				if ch[lo&lruChunkMask] != 0 {
					return lo
				}
			}
		}
		lo = end
	}
	return hi
}

// TailSlot returns the least recently used slot, or -1 when empty.
func (l *PageLRU) TailSlot() int32 { return l.tail }

// PrevOf returns the next-newer slot in recency order (toward the
// front), or -1. Walking TailSlot→PrevOf visits oldest to newest.
func (l *PageLRU) PrevOf(slot int32) int32 {
	if e := l.slots[slot>>lruSlotBits].e; e != nil {
		return e.prev[slot&lruSlotMask]
	}
	return slot + 1
}

// nextOf returns the next-older slot in recency order, or -1.
func (l *PageLRU) nextOf(slot int32) int32 {
	if e := l.slots[slot>>lruSlotBits].e; e != nil {
		return e.next[slot&lruSlotMask]
	}
	return slot - 1
}

// Remove evicts slot and returns the page it held. The slot number is
// recycled by a later insert; callers must consume any payload before
// then.
func (l *PageLRU) Remove(slot int32) uint64 {
	e, i := l.at(slot), slot&lruSlotMask
	p, nx := e.prev[i], e.next[i]
	if p >= 0 {
		l.at(p).next[p&lruSlotMask] = nx
	} else {
		l.head = nx
	}
	if nx >= 0 {
		l.at(nx).prev[nx&lruSlotMask] = p
	} else {
		l.tail = p
	}
	page := e.pages[i]
	l.chunks[page>>lruChunkBits][page&lruChunkMask] = 0
	l.free = append(l.free, slot)
	l.n--
	return page
}

// RemoveBack evicts the least recently used page, returning its page
// number and (recycled) slot. It must not be called on an empty index.
func (l *PageLRU) RemoveBack() (uint64, int32) {
	slot := l.tail
	return l.Remove(slot), slot
}
