package platform

import (
	"testing"

	"hams/internal/mem"
	"hams/internal/sim"
)

func mk(t testing.TB, name string) Platform {
	t.Helper()
	p, err := New(name, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAllNamedPlatformsConstruct(t *testing.T) {
	for _, n := range Names() {
		p := mk(t, n)
		if p.Name() != n {
			t.Fatalf("Name() = %q, want %q", p.Name(), n)
		}
		r, err := p.Access(0, mem.Access{Addr: 4096, Size: 64, Op: mem.Read})
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if r.Done <= 0 {
			t.Fatalf("%s: zero latency", n)
		}
	}
	for _, n := range []string{"ull-direct", "ull-buff"} {
		mk(t, n)
	}
	if _, err := New("bogus", Options{}); err == nil {
		t.Fatal("expected error for unknown platform")
	}
}

func TestOracleFastest(t *testing.T) {
	a := mem.Access{Addr: 1 << 20, Size: 64, Op: mem.Read}
	oracle := mk(t, "oracle")
	ro, _ := oracle.Access(0, a)
	for _, n := range []string{"mmap", "flatflash-P", "nvdimm-C", "hams-LE", "hams-TE"} {
		p := mk(t, n)
		r, err := p.Access(0, a)
		if err != nil {
			t.Fatal(err)
		}
		if r.Done < ro.Done {
			t.Fatalf("%s cold access (%v) beat oracle (%v)", n, r.Done, ro.Done)
		}
	}
}

func TestHAMSHitsApproachOracle(t *testing.T) {
	h := mk(t, "hams-TE")
	o := mk(t, "oracle")
	a := mem.Access{Addr: 0, Size: 64, Op: mem.Read}
	r1, _ := h.Access(0, a) // miss
	r2, _ := h.Access(r1.Done, a)
	hitLat := r2.Done - r1.Done
	ro, _ := o.Access(0, a)
	// NVDIMM hit within ~3x of raw DRAM (tag compare + notify).
	if hitLat > 3*ro.Done {
		t.Fatalf("HAMS hit %v vs oracle %v", hitLat, ro.Done)
	}
}

func TestMmapSlowestOnColdMiss(t *testing.T) {
	m := mk(t, "mmap")
	h := mk(t, "hams-TE")
	a := mem.Access{Addr: 1 << 24, Size: 64, Op: mem.Read}
	rm, _ := m.Access(0, a)
	rh, _ := h.Access(0, a)
	if rm.Done <= rh.Done {
		t.Fatalf("mmap cold miss (%v) must exceed hams-TE (%v)", rm.Done, rh.Done)
	}
	if rm.OS == 0 {
		t.Fatal("mmap miss must charge OS time")
	}
	if rh.OS != 0 {
		t.Fatal("HAMS must not charge OS time")
	}
}

func TestMmapSSDVariants(t *testing.T) {
	a := mem.Access{Addr: 1 << 24, Size: 64, Op: mem.Read}
	var lats []sim.Time
	for _, s := range []string{"ull", "nvme", "sata"} {
		p, err := New("mmap", Options{MmapSSD: s})
		if err != nil {
			t.Fatal(err)
		}
		r, _ := p.Access(0, a)
		lats = append(lats, r.Done)
	}
	if !(lats[0] < lats[1] && lats[1] < lats[2]) {
		t.Fatalf("expected ULL < NVMe < SATA cold miss, got %v", lats)
	}
}

func TestOptaneMBeatsOptanePOnReuse(t *testing.T) {
	pp := mk(t, "optane-P")
	pm := mk(t, "optane-M")
	a := mem.Access{Addr: 4096, Size: 8, Op: mem.Read}
	var tp, tm sim.Time
	for i := 0; i < 20; i++ {
		rp, _ := pp.Access(tp, a)
		tp = rp.Done
		rm, _ := pm.Access(tm, a)
		tm = rm.Done
	}
	if tm >= tp {
		t.Fatalf("optane-M (%v) must beat optane-P (%v) on a hot line", tm, tp)
	}
}

func TestOptaneFineGrainWastesBandwidth(t *testing.T) {
	p := mk(t, "optane-P")
	r8, _ := p.Access(0, mem.Access{Addr: 0, Size: 8, Op: mem.Read})
	p2 := mk(t, "optane-P")
	r256, _ := p2.Access(0, mem.Access{Addr: 0, Size: 256, Op: mem.Read})
	// Both touch one 256 B internal block: equal latency.
	if r8.Done != r256.Done {
		t.Fatalf("8B (%v) vs 256B (%v): block mismatch model broken", r8.Done, r256.Done)
	}
}

func TestFlatflashMMIOIsMicroseconds(t *testing.T) {
	p := mk(t, "flatflash-P")
	// Warm the SSD-internal DRAM.
	r1, _ := p.Access(0, mem.Access{Addr: 0, Size: 64, Op: mem.Write})
	r2, _ := p.Access(r1.Done, mem.Access{Addr: 0, Size: 64, Op: mem.Read})
	lat := r2.Done - r1.Done
	if lat < 4*sim.Microsecond || lat > 20*sim.Microsecond {
		t.Fatalf("flatflash 64B access = %v, want ~4.8us", lat)
	}
}

func TestFlatflashMPromotesHotPages(t *testing.T) {
	p := mk(t, "flatflash-M")
	a := mem.Access{Addr: 8192, Size: 64, Op: mem.Read}
	var now sim.Time
	var last sim.Time
	for i := 0; i < 4; i++ {
		r, _ := p.Access(now, a)
		last = r.Done - now
		now = r.Done
	}
	// After promotion the access must be DRAM-fast.
	if last > sim.Microsecond {
		t.Fatalf("hot access still %v after promotion", last)
	}
}

func TestNvdimmCWaitsForRefreshWindow(t *testing.T) {
	p := mk(t, "nvdimm-C")
	r, _ := p.Access(100, mem.Access{Addr: 1 << 20, Size: 64, Op: mem.Read})
	// Miss cost includes waiting for the 7.8us boundary + 48us move.
	if r.Done < 48*sim.Microsecond {
		t.Fatalf("nvdimm-C miss = %v, want >= 48us migration", r.Done)
	}
	// Second access to the same page is a DRAM hit.
	r2, _ := p.Access(r.Done, mem.Access{Addr: 1 << 20, Size: 64, Op: mem.Read})
	if r2.Done-r.Done > sim.Microsecond {
		t.Fatalf("nvdimm-C hit = %v", r2.Done-r.Done)
	}
}

func TestULLBuffBeatsULLDirect(t *testing.T) {
	d := mk(t, "ull-direct")
	b := mk(t, "ull-buff")
	a := mem.Access{Addr: 0, Size: 64, Op: mem.Read}
	var td, tb sim.Time
	for i := 0; i < 10; i++ {
		rd, _ := d.Access(td, a)
		td = rd.Done
		rb, _ := b.Access(tb, a)
		tb = rb.Done
	}
	if tb >= td {
		t.Fatalf("ull-buff (%v) must beat ull-direct (%v) on reuse", tb, td)
	}
}

func TestEnergyInputsNonEmpty(t *testing.T) {
	for _, n := range Names() {
		p := mk(t, n)
		var now sim.Time
		for i := 0; i < 8; i++ {
			r, err := p.Access(now, mem.Access{Addr: uint64(i) * (1 << 20), Size: 64, Op: mem.Write})
			if err != nil {
				t.Fatal(err)
			}
			now = r.Done
		}
		in := p.EnergyInputs()
		activity := in.DRAM.BytesRead + in.DRAM.BytesWrite + in.Flash.Reads + in.Flash.Programs + in.DRAM.Reads + in.DRAM.Writes
		// flatflash-P's writes land in the SSD-internal DRAM (covered
		// by its background-power flag); optane-P's media energy is
		// synthesized from bytes moved.
		if activity == 0 && !in.HasIntDRAM && n != "optane-P" {
			t.Fatalf("%s: no energy activity recorded", n)
		}
	}
}

func TestHAMSPageSizeOption(t *testing.T) {
	p, err := New("hams-TE", Options{HAMSPage: 4 * mem.KiB})
	if err != nil {
		t.Fatal(err)
	}
	hp := p.(*hamsPlatform)
	if hp.Controller().PageBytes() != 4*mem.KiB {
		t.Fatalf("page bytes = %d", hp.Controller().PageBytes())
	}
}
