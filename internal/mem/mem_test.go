package mem

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAlign(t *testing.T) {
	if AlignDown(0x12345, 0x1000) != 0x12000 {
		t.Fatal("AlignDown")
	}
	if AlignUp(0x12345, 0x1000) != 0x13000 {
		t.Fatal("AlignUp")
	}
	if AlignUp(0x12000, 0x1000) != 0x12000 {
		t.Fatal("AlignUp on aligned value must be identity")
	}
	if AlignDown(0x12000, 0x1000) != 0x12000 {
		t.Fatal("AlignDown on aligned value must be identity")
	}
}

func TestIsPow2(t *testing.T) {
	for _, v := range []uint64{1, 2, 4, 1024, 1 << 40} {
		if !IsPow2(v) {
			t.Errorf("IsPow2(%d) = false", v)
		}
	}
	for _, v := range []uint64{0, 3, 6, 1000} {
		if IsPow2(v) {
			t.Errorf("IsPow2(%d) = true", v)
		}
	}
}

func TestLog2(t *testing.T) {
	cases := map[uint64]uint{1: 0, 2: 1, 4096: 12, 1 << 20: 20}
	for in, want := range cases {
		if got := Log2(in); got != want {
			t.Errorf("Log2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestOpString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatal("Op.String")
	}
}

func TestAccessEnd(t *testing.T) {
	a := Access{Addr: 100, Size: 28}
	if a.End() != 128 {
		t.Fatalf("End() = %d", a.End())
	}
}

func TestSplitByPageSinglePage(t *testing.T) {
	a := Access{Addr: 0x1010, Size: 64, Op: Read}
	parts := SplitByPage(a, 4096)
	if len(parts) != 1 || parts[0] != a {
		t.Fatalf("parts = %v", parts)
	}
}

func TestSplitByPageStraddle(t *testing.T) {
	a := Access{Addr: 4090, Size: 12, Op: Write}
	parts := SplitByPage(a, 4096)
	if len(parts) != 2 {
		t.Fatalf("len(parts) = %d, want 2", len(parts))
	}
	if parts[0].Addr != 4090 || parts[0].Size != 6 {
		t.Fatalf("part0 = %v", parts[0])
	}
	if parts[1].Addr != 4096 || parts[1].Size != 6 {
		t.Fatalf("part1 = %v", parts[1])
	}
	if parts[0].Op != Write || parts[1].Op != Write {
		t.Fatal("Op must be preserved")
	}
}

func TestSplitByPageZeroSize(t *testing.T) {
	if parts := SplitByPage(Access{Addr: 10, Size: 0}, 4096); parts != nil {
		t.Fatalf("zero-size access split = %v, want nil", parts)
	}
}

// Property: SplitByPage covers exactly the original byte range,
// contiguously, with every part inside one page.
func TestSplitByPageProperty(t *testing.T) {
	f := func(addr uint32, size uint16, shift uint8) bool {
		pageSize := uint64(1) << (10 + shift%8) // 1 KiB .. 128 KiB
		a := Access{Addr: uint64(addr), Size: uint32(size)%20000 + 1, Op: Read}
		parts := SplitByPage(a, pageSize)
		var total uint64
		next := a.Addr
		for _, p := range parts {
			if p.Addr != next {
				return false
			}
			if AlignDown(p.Addr, pageSize) != AlignDown(p.End()-1, pageSize) {
				return false
			}
			next = p.End()
			total += uint64(p.Size)
		}
		return total == uint64(a.Size) && next == a.End()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSparseStoreReadUnwrittenIsZero(t *testing.T) {
	s := NewSparseStore()
	buf := make([]byte, 100)
	for i := range buf {
		buf[i] = 0xFF
	}
	s.ReadAt(1<<40, buf)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("unwritten bytes must read as zero")
		}
	}
	if s.Frames() != 0 {
		t.Fatal("read must not allocate frames")
	}
}

func TestSparseStoreRoundTrip(t *testing.T) {
	s := NewSparseStore()
	data := []byte("hello, memory-over-storage")
	addr := uint64(4*KiB - 5) // straddle a frame boundary
	s.WriteAt(addr, data)
	got := make([]byte, len(data))
	s.ReadAt(addr, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q, want %q", got, data)
	}
}

func TestSparseStoreCopy(t *testing.T) {
	s := NewSparseStore()
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	s.WriteAt(100, data)
	s.Copy(8190, 100, 8) // destination straddles a frame boundary
	got := make([]byte, 8)
	s.ReadAt(8190, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("copy mismatch: %v", got)
	}
}

func TestSparseStoreCopySelfIsNoop(t *testing.T) {
	s := NewSparseStore()
	s.WriteAt(0, []byte{9})
	s.Copy(0, 0, 4096)
	got := make([]byte, 1)
	s.ReadAt(0, got)
	if got[0] != 9 {
		t.Fatal("self copy corrupted data")
	}
}

func TestSparseStoreZero(t *testing.T) {
	s := NewSparseStore()
	s.WriteAt(0, bytes.Repeat([]byte{0xAB}, 10*KiB))
	s.Zero(100, 9*KiB)
	buf := make([]byte, 10*KiB)
	s.ReadAt(0, buf)
	for i, b := range buf {
		want := byte(0xAB)
		if i >= 100 && i < 100+9*KiB {
			want = 0
		}
		if b != want {
			t.Fatalf("byte %d = %#x, want %#x", i, b, want)
		}
	}
}

func TestSparseStoreCopyFromIsDeep(t *testing.T) {
	s := NewSparseStore()
	s.WriteAt(0, []byte{1, 2, 3})
	snap := NewSparseStore()
	snap.CopyFrom(s)
	s.WriteAt(0, []byte{9, 9, 9})
	got := make([]byte, 3)
	snap.ReadAt(0, got)
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("copy mutated: %v", got)
	}
	s.CopyFrom(snap)
	s2 := make([]byte, 3)
	s.ReadAt(0, s2)
	if !bytes.Equal(s2, []byte{1, 2, 3}) {
		t.Fatalf("copy back failed: %v", s2)
	}
	// Copied frames must be independent of the source.
	s.WriteAt(0, []byte{7})
	snap.ReadAt(0, got)
	if got[0] != 1 {
		t.Fatal("copy aliased source frames")
	}
}

// A destination holding frames the source lacks ends up with exactly
// the source's frame set: the extra frames read as zero and no longer
// count as resident, even in radix chunks the source never touched.
func TestSparseStoreCopyFromDropsExtraFrames(t *testing.T) {
	src := NewSparseStore()
	src.WriteAt(0, []byte{1})
	dst := NewSparseStore()
	dst.WriteAt(0, []byte{5})
	dst.WriteAt(8*KiB, []byte{6})  // same radix chunk as frame 0
	dst.WriteAt(64*MiB, []byte{7}) // a chunk src lacks
	dst.CopyFrom(src)
	if dst.Frames() != src.Frames() {
		t.Fatalf("Frames() = %d, want %d", dst.Frames(), src.Frames())
	}
	got := make([]byte, 1)
	for addr, want := range map[uint64]byte{0: 1, 8 * KiB: 0, 64 * MiB: 0} {
		dst.ReadAt(addr, got)
		if got[0] != want {
			t.Fatalf("byte at %#x = %d, want %d", addr, got[0], want)
		}
	}
	// The frame set now matches, so copying again allocates nothing.
	if avg := testing.AllocsPerRun(20, func() { dst.CopyFrom(src) }); avg != 0 {
		t.Fatalf("CopyFrom over a matching frame set allocates %.1f/op, want 0", avg)
	}
}

// Property: write-then-read round trips at arbitrary addresses/sizes.
func TestSparseStoreRoundTripProperty(t *testing.T) {
	s := NewSparseStore()
	f := func(seed int64, addr uint32, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, int(n)%9000+1)
		rng.Read(data)
		s.WriteAt(uint64(addr), data)
		got := make([]byte, len(data))
		s.ReadAt(uint64(addr), got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
