package ftl

import (
	"testing"

	"hams/internal/flash"
	"hams/internal/sim"
)

func benchArray() *flash.Array {
	g := flash.Geometry{
		Channels: 4, PackagesPerC: 1, DiesPerPkg: 2, PlanesPerDie: 1,
		BlocksPerPln: 64, PagesPerBlk: 64, PageBytes: 4096,
	}
	return flash.New(g, flash.ZNAND())
}

// BenchmarkTranslateRead measures the L2P lookup plus media read for a
// mapped LBA — the archive-side cost of every cache fill. ReadInto is
// the hot-path form: the destination is caller scratch, so the
// translate+read pair allocates nothing.
func BenchmarkTranslateRead(b *testing.B) {
	f := New(benchArray(), DefaultConfig())
	const mapped = 256
	buf := make([]byte, f.PageBytes())
	var now sim.Time
	for lba := uint64(0); lba < mapped; lba++ {
		d, err := f.Write(now, lba, buf)
		if err != nil {
			b.Fatal(err)
		}
		now = d
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = f.ReadInto(now, uint64(i)%mapped, 0, buf)
	}
}

// BenchmarkTranslateWrite measures the out-of-place update path:
// allocate a flash page, program it, remap the LBA and invalidate the
// old copy (GC included whenever the free pool drains).
func BenchmarkTranslateWrite(b *testing.B) {
	f := New(benchArray(), DefaultConfig())
	const working = 256
	buf := make([]byte, f.PageBytes())
	var now sim.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := f.Write(now, uint64(i)%working, buf)
		if err != nil {
			b.Fatal(err)
		}
		now = d
	}
}

// TestTranslateReadZeroAllocs pins the fill-path contract: reading a
// mapped LBA into caller scratch allocates nothing.
func TestTranslateReadZeroAllocs(t *testing.T) {
	f := New(benchArray(), DefaultConfig())
	const mapped = 64
	buf := make([]byte, f.PageBytes())
	var now sim.Time
	for lba := uint64(0); lba < mapped; lba++ {
		d, err := f.Write(now, lba, buf)
		if err != nil {
			t.Fatal(err)
		}
		now = d
	}
	var lba uint64
	avg := testing.AllocsPerRun(200, func() {
		now = f.ReadInto(now, lba%mapped, 0, buf)
		lba++
	})
	if avg != 0 {
		t.Fatalf("mapped ReadInto allocates %.1f/op, want 0", avg)
	}
}

// TestOverwriteZeroAllocs pins stale-payload recycling: overwriting a
// mapped LBA on the full ULL geometry hands the invalidated page's
// buffer to the next program, so steady-state overwrites allocate
// nothing (the mapping tables grow by whole chunks, well under one
// allocation per write).
func TestOverwriteZeroAllocs(t *testing.T) {
	f := New(flash.New(flash.ULLGeometry(), flash.ZNAND()), DefaultConfig())
	buf := make([]byte, f.PageBytes())
	var now sim.Time
	overwrite := func() {
		d, err := f.Write(now, 7, buf)
		if err != nil {
			t.Fatal(err)
		}
		now = d
	}
	for i := 0; i < 1024; i++ {
		overwrite()
	}
	if avg := testing.AllocsPerRun(500, overwrite); avg != 0 {
		t.Fatalf("overwrite allocates %.1f/op, want 0", avg)
	}
}
