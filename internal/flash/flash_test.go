package flash

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"hams/internal/sim"
)

func smallGeo() Geometry {
	return Geometry{
		Channels: 4, PackagesPerC: 1, DiesPerPkg: 2, PlanesPerDie: 2,
		BlocksPerPln: 8, PagesPerBlk: 16, PageBytes: 4096,
	}
}

func TestGeometryCounts(t *testing.T) {
	g := smallGeo()
	if g.Dies() != 8 {
		t.Fatalf("Dies() = %d", g.Dies())
	}
	if g.Planes() != 16 {
		t.Fatalf("Planes() = %d", g.Planes())
	}
	if g.Blocks() != 128 {
		t.Fatalf("Blocks() = %d", g.Blocks())
	}
	if g.TotalPages() != 128*16 {
		t.Fatalf("TotalPages() = %d", g.TotalPages())
	}
	if g.Capacity() != 128*16*4096 {
		t.Fatalf("Capacity() = %d", g.Capacity())
	}
}

func TestComposeDecomposeRoundTrip(t *testing.T) {
	g := smallGeo()
	f := func(raw uint32) bool {
		p := PPN(uint64(raw) % g.TotalPages())
		return g.Compose(g.Decompose(p)) == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestConsecutivePPNsRotateChannels(t *testing.T) {
	g := smallGeo()
	for i := 0; i < g.Channels; i++ {
		if got := g.Decompose(PPN(i)).Channel; got != i {
			t.Fatalf("PPN %d on channel %d, want %d", i, got, i)
		}
	}
}

func TestReadProgramRoundTrip(t *testing.T) {
	a := New(smallGeo(), ZNAND())
	data := []byte("z-nand page payload")
	done, err := a.ProgramPage(0, 7, data)
	if err != nil {
		t.Fatal(err)
	}
	if done < ZNAND().TProg {
		t.Fatalf("program done=%v, want >= %v", done, ZNAND().TProg)
	}
	rdDone, got := a.ReadPage(done, 7, 0)
	if rdDone < done+ZNAND().TRead {
		t.Fatalf("read done=%v", rdDone)
	}
	if !bytes.Equal(got[:len(data)], data) {
		t.Fatalf("got %q", got[:len(data)])
	}
	if !a.Written(7) {
		t.Fatal("Written(7) = false")
	}
}

func TestReadUnwrittenReturnsZeroPage(t *testing.T) {
	a := New(smallGeo(), ZNAND())
	_, got := a.ReadPage(0, 3, 0)
	if len(got) != 4096 {
		t.Fatalf("len = %d", len(got))
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("unwritten page must read as zero")
		}
	}
}

func TestProgramWithoutEraseFails(t *testing.T) {
	a := New(smallGeo(), ZNAND())
	if _, err := a.ProgramPage(0, 5, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ProgramPage(0, 5, []byte{2}); err != ErrProgramWritten {
		t.Fatalf("second program err = %v, want ErrProgramWritten", err)
	}
}

func TestEraseEnablesReprogram(t *testing.T) {
	a := New(smallGeo(), ZNAND())
	a.ProgramPage(0, 5, []byte{1})
	done := a.EraseBlock(0, 5)
	if done < ZNAND().TErase {
		t.Fatalf("erase done = %v", done)
	}
	if a.Written(5) {
		t.Fatal("page still written after erase")
	}
	if _, err := a.ProgramPage(done, 5, []byte{2}); err != nil {
		t.Fatalf("reprogram after erase: %v", err)
	}
	if a.EraseCount(5) != 1 {
		t.Fatalf("EraseCount = %d", a.EraseCount(5))
	}
}

// A discarded page drops its payload but stays programmed until its
// block is erased, so the NAND program rule still holds.
func TestDiscardKeepsPageProgrammed(t *testing.T) {
	a := New(smallGeo(), ZNAND())
	a.ProgramPage(0, 5, []byte{1})
	a.Discard(5)
	a.Discard(6) // unwritten: no-op
	if !a.Written(5) || a.Written(6) {
		t.Fatalf("Written(5)=%v Written(6)=%v, want true false", a.Written(5), a.Written(6))
	}
	if _, err := a.ProgramPage(0, 5, []byte{2}); err != ErrProgramWritten {
		t.Fatalf("program over a discarded page: err = %v, want ErrProgramWritten", err)
	}
	if got := a.PeekPage(5); !bytes.Equal(got, make([]byte, len(got))) {
		t.Fatal("discarded page still holds data")
	}
	a.EraseBlock(0, 5)
	if _, err := a.ProgramPage(0, 5, []byte{3}); err != nil {
		t.Fatalf("reprogram after erase: %v", err)
	}
	if got := a.PeekPage(5); got[0] != 3 {
		t.Fatalf("reprogrammed page holds %d, want 3", got[0])
	}
}

func TestEraseClearsWholeBlockOnly(t *testing.T) {
	g := smallGeo()
	a := New(g, ZNAND())
	// Two pages in the same block (same channel/die/plane coords).
	ad := g.Decompose(0)
	ad.Page = 0
	p0 := g.Compose(ad)
	ad.Page = 1
	p1 := g.Compose(ad)
	// A page in a different block.
	ad2 := g.Decompose(0)
	ad2.Block = 1
	pOther := g.Compose(ad2)

	a.ProgramPage(0, p0, []byte{1})
	a.ProgramPage(0, p1, []byte{2})
	a.ProgramPage(0, pOther, []byte{3})
	a.EraseBlock(0, p0)
	if a.Written(p0) || a.Written(p1) {
		t.Fatal("erase must clear all pages in the block")
	}
	if !a.Written(pOther) {
		t.Fatal("erase must not touch other blocks")
	}
}

func TestDieContentionSerializes(t *testing.T) {
	g := smallGeo()
	a := New(g, ZNAND())
	// Two reads to the same die at t=0 serialize on the die.
	d1, _ := a.ReadPage(0, 0, 0)
	sameDie := g.Compose(Addr{Block: 1}) // same ch/pkg/die/plane, diff block
	d2, _ := a.ReadPage(0, sameDie, 0)
	if d2 < d1+ZNAND().TRead {
		t.Fatalf("same-die reads overlapped: %v then %v", d1, d2)
	}
	// Reads to different channels overlap.
	b := New(g, ZNAND())
	e1, _ := b.ReadPage(0, 0, 0)
	e2, _ := b.ReadPage(0, 1, 0) // channel 1
	if e2 > e1+100 {
		t.Fatalf("cross-channel reads serialized: %v vs %v", e1, e2)
	}
}

func TestPartialTransferFaster(t *testing.T) {
	a := New(smallGeo(), ZNAND())
	full, _ := a.ReadPage(0, 0, 0)
	b := New(smallGeo(), ZNAND())
	half, _ := b.ReadPage(0, 0, 2048)
	if half >= full {
		t.Fatalf("2KB transfer (%v) must beat 4KB (%v)", half, full)
	}
}

func TestZNANDFasterThanTLC(t *testing.T) {
	z := New(smallGeo(), ZNAND())
	v := New(smallGeo(), VNANDTLC())
	zd, _ := z.ReadPage(0, 0, 0)
	vd, _ := v.ReadPage(0, 0, 0)
	if zd >= vd {
		t.Fatalf("Z-NAND read (%v) must beat TLC (%v)", zd, vd)
	}
}

func TestStatsAccumulate(t *testing.T) {
	a := New(smallGeo(), ZNAND())
	a.ProgramPage(0, 0, []byte{1})
	a.ReadPage(0, 0, 0)
	a.EraseBlock(0, 0)
	st := a.Stats()
	if st.Programs != 1 || st.Reads != 1 || st.Erases != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesIn != 4096 || st.BytesOut != 4096 {
		t.Fatalf("bytes = %+v", st)
	}
	a.ResetStats()
	if a.Stats().Reads != 0 {
		t.Fatal("ResetStats")
	}
}

// Property: programmed data reads back identically until erased, for
// random programs over distinct erased pages.
func TestDataIntegrityProperty(t *testing.T) {
	g := smallGeo()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := New(g, ZNAND())
		want := make(map[PPN][]byte)
		var now sim.Time
		for i := 0; i < 50; i++ {
			p := PPN(rng.Intn(int(g.TotalPages())))
			if _, dup := want[p]; dup {
				continue
			}
			data := make([]byte, 128)
			rng.Read(data)
			done, err := a.ProgramPage(now, p, data)
			if err != nil {
				return false
			}
			now = done
			want[p] = data
		}
		for p, w := range want {
			_, got := a.ReadPage(now, p, 0)
			if !bytes.Equal(got[:len(w)], w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
