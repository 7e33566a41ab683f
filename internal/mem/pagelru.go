package mem

import "slices"

// PageLRU is an allocation-light LRU index over a sparse page-number
// key space, shared by the simulator's big page caches (the OS page
// cache, the baseline DRAM caches, the SSD internal buffer). It
// replaces the map[uint64]*entry + container/list pattern: slots live
// in flat parallel slices threaded into an intrusive doubly-linked
// list, and the page→slot lookup is a lazily allocated chunked radix
// table — so steady-state insert/touch/evict traffic allocates nothing
// and leaves no per-entry pointers for the garbage collector to trace.
//
// PageLRU stores only the recency order; callers keep per-slot payload
// (dirty bits, data buffers) in their own slices indexed by the slot
// numbers PageLRU hands out. Slot numbers are stable for the lifetime
// of the entry and are recycled after removal.
type PageLRU struct {
	chunks     [][]int32 // page>>lruChunkBits → chunk; entry = slot+1, 0 = absent
	pages      []uint64  // slot → page
	prev, next []int32   // intrusive list; prev points toward the front (MRU)
	head, tail int32     // front (most recent) / back (least recent); -1 = empty
	free       []int32   // recycled slots
	n          int
}

const (
	lruChunkBits = 14
	lruChunkSize = 1 << lruChunkBits
	lruChunkMask = lruChunkSize - 1
)

// NewPageLRU returns an empty index.
func NewPageLRU() *PageLRU {
	return &PageLRU{head: -1, tail: -1}
}

// Len returns the number of resident pages.
func (l *PageLRU) Len() int { return l.n }

// Slots returns the size of the slot space; callers size their payload
// slices to it.
func (l *PageLRU) Slots() int { return len(l.pages) }

// Get returns the slot holding page, without touching recency.
func (l *PageLRU) Get(page uint64) (int32, bool) {
	ci := page >> lruChunkBits
	if ci >= uint64(len(l.chunks)) || l.chunks[ci] == nil {
		return 0, false
	}
	v := l.chunks[ci][page&lruChunkMask]
	if v == 0 {
		return 0, false
	}
	return v - 1, true
}

// PageOf returns the page held by slot.
func (l *PageLRU) PageOf(slot int32) uint64 { return l.pages[slot] }

func (l *PageLRU) unlink(slot int32) {
	p, nx := l.prev[slot], l.next[slot]
	if p >= 0 {
		l.next[p] = nx
	} else {
		l.head = nx
	}
	if nx >= 0 {
		l.prev[nx] = p
	} else {
		l.tail = p
	}
}

func (l *PageLRU) pushFront(slot int32) {
	l.prev[slot] = -1
	l.next[slot] = l.head
	if l.head >= 0 {
		l.prev[l.head] = slot
	}
	l.head = slot
	if l.tail < 0 {
		l.tail = slot
	}
}

// MoveToFront marks slot most recently used.
func (l *PageLRU) MoveToFront(slot int32) {
	if l.head == slot {
		return
	}
	l.unlink(slot)
	l.pushFront(slot)
}

func (l *PageLRU) index(page uint64, v int32) {
	ci := page >> lruChunkBits
	for uint64(len(l.chunks)) <= ci {
		l.chunks = append(l.chunks, nil)
	}
	if l.chunks[ci] == nil {
		l.chunks[ci] = make([]int32, lruChunkSize)
	}
	l.chunks[ci][page&lruChunkMask] = v
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
		slot = int32(len(l.pages))
		l.pages = append(l.pages, 0)
		l.prev = append(l.prev, 0)
		l.next = append(l.next, 0)
	}
	l.pages[slot] = page
	l.pushFront(slot)
	l.index(page, slot+1)
	l.n++
	return slot
}

// Grow reserves slot space for n more inserts (recycled slots count
// toward n), so a caller about to insert a known number of pages — a
// cache warm-up — fills the slot arrays without reallocating them as
// they double. Callers grow their payload slices by n to match.
func (l *PageLRU) Grow(n int) {
	if n -= len(l.free); n > 0 {
		l.pages = slices.Grow(l.pages, n)
		l.prev = slices.Grow(l.prev, n)
		l.next = slices.Grow(l.next, n)
	}
}

// TailSlot returns the least recently used slot, or -1 when empty.
func (l *PageLRU) TailSlot() int32 { return l.tail }

// PrevOf returns the next-newer slot in recency order (toward the
// front), or -1. Walking TailSlot→PrevOf visits oldest to newest.
func (l *PageLRU) PrevOf(slot int32) int32 { return l.prev[slot] }

// Remove evicts slot. The slot number is recycled by a later insert;
// callers must consume any payload before then.
func (l *PageLRU) Remove(slot int32) {
	l.unlink(slot)
	page := l.pages[slot]
	l.chunks[page>>lruChunkBits][page&lruChunkMask] = 0
	l.free = append(l.free, slot)
	l.n--
}

// RemoveBack evicts the least recently used page, returning its page
// number and (recycled) slot. It must not be called on an empty index.
func (l *PageLRU) RemoveBack() (uint64, int32) {
	slot := l.tail
	page := l.pages[slot]
	l.Remove(slot)
	return page, slot
}
