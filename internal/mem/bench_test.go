package mem

import "testing"

// BenchmarkSparseStoreWrite measures 64-byte stores striding across a
// 64 MiB resident set — the shape of cache-line traffic against the
// NVDIMM store. Frames are pre-touched so the loop times the radix
// lookup and copy, not lazy allocation.
func BenchmarkSparseStoreWrite(b *testing.B) {
	const span = 64 * MiB
	s := NewSparseStore()
	s.Zero(0, span)
	var buf [64]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := (uint64(i) * 4096) % span
		s.WriteAt(addr, buf[:])
	}
}

// BenchmarkSparseStoreRead is the load-side counterpart.
func BenchmarkSparseStoreRead(b *testing.B) {
	const span = 64 * MiB
	s := NewSparseStore()
	s.Zero(0, span)
	var buf [64]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := (uint64(i) * 4096) % span
		s.ReadAt(addr, buf[:])
	}
}

// BenchmarkSparseStorePageCopy measures full-page transfers (the fill
// and writeback payload path).
func BenchmarkSparseStorePageCopy(b *testing.B) {
	const span = 64 * MiB
	s := NewSparseStore()
	s.Zero(0, span)
	page := make([]byte, 128*KiB)
	b.SetBytes(int64(len(page)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := (uint64(i) * uint64(len(page))) % span
		s.WriteAt(addr, page)
		s.ReadAt(addr, page)
	}
}

// TestSparseStoreZeroAllocs pins the resident-set access contract:
// reads and writes to already-touched frames allocate nothing.
func TestSparseStoreZeroAllocs(t *testing.T) {
	s := NewSparseStore()
	s.Zero(0, 4*MiB)
	var buf [64]byte
	var addr uint64
	avg := testing.AllocsPerRun(200, func() {
		s.WriteAt(addr%(4*MiB), buf[:])
		s.ReadAt(addr%(4*MiB), buf[:])
		addr += 4096
	})
	if avg != 0 {
		t.Fatalf("resident access allocates %.1f/op, want 0", avg)
	}
}

// BenchmarkPageLRUTouch measures the hit-path recency update: radix
// lookup + move-to-front on a full LRU.
func BenchmarkPageLRUTouch(b *testing.B) {
	const n = 4096
	l := NewPageLRU()
	for p := uint64(0); p < n; p++ {
		l.InsertFront(p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot, ok := l.Get(uint64(i) % n)
		if !ok {
			b.Fatal("page not resident")
		}
		l.MoveToFront(slot)
	}
}

// BenchmarkPageLRUEvictInsert measures the miss path: evict the LRU
// tail and install a page, steady state (slots recycled).
func BenchmarkPageLRUEvictInsert(b *testing.B) {
	const n = 4096
	l := NewPageLRU()
	for p := uint64(0); p < n; p++ {
		l.InsertFront(p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		page, _ := l.RemoveBack()
		l.InsertFront(page)
	}
}
