package ssd

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"hams/internal/checkpoint"
	"hams/internal/flash"
	"hams/internal/ftl"
	"hams/internal/mem"
	"hams/internal/sim"
)

// tinyCfg returns a small, fast device for unit tests.
func tinyCfg(bufPages int) Config {
	g := flash.Geometry{
		Channels: 2, PackagesPerC: 1, DiesPerPkg: 1, PlanesPerDie: 1,
		BlocksPerPln: 16, PagesPerBlk: 16, PageBytes: 4096,
	}
	c := Config{
		Name: "tiny", Geometry: g, Timing: flash.ZNAND(),
		FTL: ftl.DefaultConfig(), HILOverhead: 500, HILSlots: 2,
		BufferGBs: 12.8, BufferLat: 100, Supercap: true,
	}
	if bufPages > 0 {
		c.BufferBytes = uint64(bufPages) * 4096
	}
	return c
}

func TestWriteReadThroughBuffer(t *testing.T) {
	d := New(tinyCfg(8))
	data := []byte("buffered page")
	done, err := d.Write(0, 3, data, false)
	if err != nil {
		t.Fatal(err)
	}
	// Buffered write must complete far faster than a flash program.
	if done >= flash.ZNAND().TProg {
		t.Fatalf("buffered write took %v, should avoid flash program", done)
	}
	rdDone, got := d.Read(done, 3, 0)
	if !bytes.Equal(got[:len(data)], data) {
		t.Fatalf("got %q", got[:len(data)])
	}
	// Buffer hit: far faster than a flash read.
	if rdDone-done >= flash.ZNAND().TRead {
		t.Fatalf("buffer read hit took %v", rdDone-done)
	}
	st := d.Stats()
	if st.BufferHits != 1 {
		t.Fatalf("BufferHits = %d", st.BufferHits)
	}
}

func TestBufferlessWriteGoesToFlash(t *testing.T) {
	d := New(tinyCfg(0))
	done, err := d.Write(0, 3, []byte("direct"), false)
	if err != nil {
		t.Fatal(err)
	}
	if done < flash.ZNAND().TProg {
		t.Fatalf("bufferless write took %v, must include program (%v)", done, flash.ZNAND().TProg)
	}
	if d.HasBuffer() {
		t.Fatal("HasBuffer on bufferless device")
	}
}

func TestFUAForcesFlashProgram(t *testing.T) {
	d := New(tinyCfg(8))
	done, err := d.Write(0, 3, []byte("fua"), true)
	if err != nil {
		t.Fatal(err)
	}
	if done < flash.ZNAND().TProg {
		t.Fatalf("FUA write took %v, must include program", done)
	}
	if d.Stats().FUAWrites != 1 {
		t.Fatal("FUAWrites not counted")
	}
}

func TestBufferEvictionWritesBack(t *testing.T) {
	d := New(tinyCfg(4))
	var now sim.Time
	for i := uint64(0); i < 10; i++ {
		done, err := d.Write(now, i, []byte{byte(i)}, false)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	if d.Stats().BufferEvicts == 0 {
		t.Fatal("expected evictions")
	}
	// Every page must still read back correctly (evicted from flash,
	// resident from buffer).
	for i := uint64(0); i < 10; i++ {
		_, got := d.Read(now, i, 0)
		if got[0] != byte(i) {
			t.Fatalf("lba %d = %d", i, got[0])
		}
	}
}

func TestFlushClearsDirty(t *testing.T) {
	d := New(tinyCfg(8))
	d.Write(0, 1, []byte{0xA}, false)
	d.Write(0, 2, []byte{0xB}, false)
	done := d.Flush(0)
	if done < flash.ZNAND().TProg {
		t.Fatalf("flush took %v, must program dirty pages", done)
	}
	// After flush, a power failure without supercap loses nothing.
	if risk := d.PowerFail(); risk != 0 {
		t.Fatalf("dirty at power fail after flush = %d", risk)
	}
}

func TestPowerFailSupercapPreservesData(t *testing.T) {
	d := New(tinyCfg(8))
	d.Write(0, 7, []byte{0x42}, false)
	risk := d.PowerFail()
	if risk != 1 {
		t.Fatalf("risk = %d, want 1", risk)
	}
	if d.DirtyLost() != 0 {
		t.Fatal("supercap device lost data")
	}
	_, got := d.Read(0, 7, 0)
	if got[0] != 0x42 {
		t.Fatalf("after powerfail read = %d", got[0])
	}
}

func TestPowerFailWithoutSupercapLosesDirty(t *testing.T) {
	cfg := tinyCfg(8)
	cfg.Supercap = false
	d := New(cfg)
	d.Write(0, 7, []byte{0x42}, false)
	d.PowerFail()
	if d.DirtyLost() != 1 {
		t.Fatalf("DirtyLost = %d, want 1", d.DirtyLost())
	}
	_, got := d.Read(0, 7, 0)
	if got[0] == 0x42 {
		t.Fatal("volatile buffer survived power failure")
	}
}

func TestULLFasterThanNVMeSSD(t *testing.T) {
	ull := New(ULLFlash())
	nv := New(NVMeSSD())
	// Force buffer misses by reading never-written LBAs via flash:
	// write first so the read is mapped, then read a *different* run.
	var du, dn sim.Time
	ull.Write(0, 0, make([]byte, 4096), true)
	nv.Write(0, 0, make([]byte, 4096), true)
	s1, _ := ull.Read(1_000_000_000, 0, 0)
	s2, _ := nv.Read(1_000_000_000, 0, 0)
	du, dn = s1-1_000_000_000, s2-1_000_000_000
	_ = du
	_ = dn
	// ULL write path (FUA) must beat NVMe SSD write path.
	wu, _ := ull.Write(2_000_000_000, 1, make([]byte, 4096), true)
	wn, _ := nv.Write(2_000_000_000, 1, make([]byte, 4096), true)
	if wu >= wn {
		t.Fatalf("ULL FUA write (%v) must beat NVMe (%v)", wu-2_000_000_000, wn-2_000_000_000)
	}
}

func TestDeviceConfigsSane(t *testing.T) {
	for _, cfg := range []Config{ULLFlash(), ULLFlashNoBuffer(), NVMeSSD(), SATASSD()} {
		d := New(cfg)
		if d.Capacity() == 0 {
			t.Fatalf("%s: zero capacity", cfg.Name)
		}
		if d.PageBytes() != 4096 {
			t.Fatalf("%s: page bytes %d", cfg.Name, d.PageBytes())
		}
	}
	if New(ULLFlashNoBuffer()).HasBuffer() {
		t.Fatal("advanced-HAMS device must be bufferless")
	}
}

func TestHILParallelismLimitsConcurrency(t *testing.T) {
	cfg := tinyCfg(64)
	cfg.HILSlots = 1
	cfg.HILOverhead = 10 * sim.Microsecond
	d := New(cfg)
	d.Write(0, 0, []byte{1}, false)
	done, _ := d.Write(0, 1, []byte{2}, false)
	if done < 20*sim.Microsecond {
		t.Fatalf("single HIL slot must serialize: %v", done)
	}
}

// Property: any interleaving of writes and reads over a small LBA set
// returns last-written data (write-back buffer + FTL coherence).
func TestBufferFTLCoherenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := New(tinyCfg(4)) // tiny buffer: constant eviction traffic
		shadow := make(map[uint64]byte)
		var now sim.Time
		for i := 0; i < 200; i++ {
			lba := uint64(rng.Intn(16))
			if rng.Intn(2) == 0 {
				v := byte(rng.Intn(256))
				done, err := d.Write(now, lba, []byte{v}, rng.Intn(4) == 0)
				if err != nil {
					return false
				}
				shadow[lba] = v
				now = done
			} else {
				done, got := d.Read(now, lba, 0)
				want, ok := shadow[lba]
				if ok && got[0] != want {
					return false
				}
				now = done
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// lruImage is a saved buffer LRU (mem.PageLRU.SaveState) in decoded
// form, so a test can corrupt single fields.
type lruImage struct {
	pages            []uint64
	prev, next, free []int64
	head, tail       int64
	n                uint64
}

func decodeLRUImage(t *testing.T, b []byte) lruImage {
	t.Helper()
	d := checkpoint.NewDec(b)
	slots := d.CountSized(24)
	im := lruImage{pages: make([]uint64, slots), prev: make([]int64, slots), next: make([]int64, slots)}
	for i := range im.pages {
		im.pages[i] = d.U64()
	}
	for i := range im.prev {
		im.prev[i] = d.I64()
	}
	for i := range im.next {
		im.next[i] = d.I64()
	}
	im.head, im.tail = d.I64(), d.I64()
	im.free = make([]int64, d.Count(slots))
	for i := range im.free {
		im.free[i] = d.I64()
	}
	im.n = d.U64()
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	return im
}

func (im lruImage) encode() []byte {
	var e checkpoint.Enc
	e.Count(len(im.pages))
	for _, p := range im.pages {
		e.U64(p)
	}
	for _, v := range im.prev {
		e.I64(v)
	}
	for _, v := range im.next {
		e.I64(v)
	}
	e.I64(im.head)
	e.I64(im.tail)
	e.Count(len(im.free))
	for _, v := range im.free {
		e.I64(v)
	}
	e.U64(im.n)
	return e.Bytes()
}

// TestBufferRestoreRejectsCorruptList corrupts the recency list of a
// saved 4-slot buffer one field at a time. Restore must refuse each
// image with ErrCorrupt: a list it accepted is one the next insert or
// eviction could index out of range on.
func TestBufferRestoreRejectsCorruptList(t *testing.T) {
	d := New(tinyCfg(4))
	var now sim.Time
	for lba := uint64(0); lba < 6; lba++ {
		done, err := d.Write(now, lba, []byte{byte(lba)}, false)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	d.Trim(3)
	d.Trim(5)
	var enc checkpoint.Enc
	d.buf.SaveState(&enc)
	saved := enc.Bytes()

	im := decodeLRUImage(t, saved)
	if im.n != 2 || len(im.free) != 2 || im.head == im.tail {
		t.Fatalf("buffer holds %d live and %d free slots, want 2 and 2", im.n, len(im.free))
	}
	head, tail, free := im.head, im.tail, im.free[0]
	for _, c := range []struct {
		name string
		mut  func(*lruImage)
	}{
		{"head out of range", func(im *lruImage) { im.head = 1 << 20 }},
		{"prev out of range", func(im *lruImage) { im.prev[tail] = 7 }},
		{"prev below -1", func(im *lruImage) { im.prev[tail] = -2 }},
		{"head is free", func(im *lruImage) { im.head = free }},
		{"tail is free", func(im *lruImage) { im.tail = free }},
		{"walk ends before head", func(im *lruImage) { im.head = tail }},
		{"walk revisits a slot", func(im *lruImage) { im.prev[head] = tail }},
		{"next not inverse of prev", func(im *lruImage) { im.next[head] = head }},
		{"free slot repeated", func(im *lruImage) { im.free[1] = im.free[0] }},
		{"live count off", func(im *lruImage) { im.n-- }},
		{"page live twice", func(im *lruImage) { im.pages[head] = im.pages[tail] }},
	} {
		t.Run(c.name, func(t *testing.T) {
			bad := decodeLRUImage(t, saved)
			c.mut(&bad)
			err := mem.NewPageLRU().RestoreState(checkpoint.NewDec(bad.encode()))
			if !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Fatalf("restore = %v, want ErrCorrupt", err)
			}
		})
	}

	l := mem.NewPageLRU()
	if err := l.RestoreState(checkpoint.NewDec(im.encode())); err != nil {
		t.Fatal(err)
	}
	var again checkpoint.Enc
	l.SaveState(&again)
	if !bytes.Equal(again.Bytes(), saved) {
		t.Fatal("restored buffer saves different bytes")
	}
}
