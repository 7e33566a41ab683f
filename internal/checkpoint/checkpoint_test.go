package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

func sampleImage() *Image {
	img := &Image{Version: SchemaVersion, Platform: "hams-LE", SimTime: 123456, Warmup: 512}
	var a, b Enc
	a.U64(42)
	a.I64(-7)
	a.F64(3.5)
	a.Bool(true)
	a.String("tenant")
	a.Blob([]byte{1, 2, 3})
	img.Add("core/ctl", &a)
	b.Count(2)
	b.U32(9)
	b.U32(10)
	img.Add("mem/nvdimm", &b)
	return img
}

func TestRoundTrip(t *testing.T) {
	img := sampleImage()
	var buf bytes.Buffer
	if err := Encode(&buf, img); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Version != img.Version || got.Platform != img.Platform ||
		got.SimTime != img.SimTime || got.Warmup != img.Warmup {
		t.Fatalf("header mismatch: %+v vs %+v", got, img)
	}
	if len(got.Sections) != len(img.Sections) {
		t.Fatalf("got %d sections, want %d", len(got.Sections), len(img.Sections))
	}
	for i, s := range img.Sections {
		if got.Sections[i].Name != s.Name || !bytes.Equal(got.Sections[i].Data, s.Data) {
			t.Fatalf("section %d differs", i)
		}
	}
	d, err := got.Section("core/ctl")
	if err != nil {
		t.Fatalf("section: %v", err)
	}
	if v := d.U64(); v != 42 {
		t.Fatalf("u64 = %d", v)
	}
	if v := d.I64(); v != -7 {
		t.Fatalf("i64 = %d", v)
	}
	if v := d.F64(); v != 3.5 {
		t.Fatalf("f64 = %v", v)
	}
	if !d.Bool() {
		t.Fatal("bool = false")
	}
	if v := d.String(64); v != "tenant" {
		t.Fatalf("string = %q", v)
	}
	if v := d.Blob(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Fatalf("blob = %v", v)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	if _, err := got.Section("no/such"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing section error = %v", err)
	}
}

func TestBadMagicRejected(t *testing.T) {
	if _, err := Decode(strings.NewReader("SMAH\x01\x00\x00\x00rest")); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("err = %v, want ErrBadHeader", err)
	}
}

// Both the retired v1 layout and a future version are refused.
func TestUnknownVersionRejected(t *testing.T) {
	for _, hdr := range []string{"HAMC\x01\x00\x00\x00rest", "HAMC\x03\x00\x00\x00rest"} {
		if _, err := Decode(strings.NewReader(hdr)); !errors.Is(err, ErrBadHeader) {
			t.Fatalf("%q: err = %v, want ErrBadHeader", hdr, err)
		}
	}
}

// TestHugeCountRejected is the count-OOM regression for the container
// layer: every length field a hostile image can inflate — platform
// name, section count, section name, section payload — must fail
// cleanly without the decoder sizing an allocation from the lie.
func TestHugeCountRejected(t *testing.T) {
	le := binary.LittleEndian
	u64 := func(v uint64) []byte { b := make([]byte, 8); le.PutUint64(b, v); return b }
	u32 := func(v uint32) []byte { b := make([]byte, 4); le.PutUint32(b, v); return b }
	hdr := append([]byte("HAMC"), u32(SchemaVersion)...)

	cases := map[string][]byte{
		// Platform-name length 2^60.
		"platform-name": append(append([]byte{}, hdr...), u64(1<<60)...),
		// Section count 2^32-1 (> MaxSections).
		"section-count": bytes.Join([][]byte{hdr, u64(0), u64(0), u64(0), u32(1<<32 - 1)}, nil),
		// Section-name length 2^50.
		"section-name": bytes.Join([][]byte{hdr, u64(0), u64(0), u64(0), u32(1), u64(1 << 50)}, nil),
		// Section payload claiming 2^40 bytes with none attached: the
		// chunked reader must fail at the first short read, not allocate
		// a terabyte up front.
		"section-payload": bytes.Join([][]byte{
			hdr, u64(0), u64(0), u64(0), u32(1),
			u64(4), []byte("core"), u64(1 << 40),
		}, nil),
		// Payload length over MaxSectionBytes is rejected before any read.
		"section-payload-limit": bytes.Join([][]byte{
			hdr, u64(0), u64(0), u64(0), u32(1),
			u64(4), []byte("core"), u64(MaxSectionBytes + 1),
		}, nil),
	}
	for name, data := range cases {
		if _, err := Decode(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestDecCountBounds(t *testing.T) {
	var e Enc
	e.Count(1 << 40)
	d := NewDec(e.Bytes())
	if n := d.Count(100); n != 0 {
		t.Fatalf("count = %d, want 0", n)
	}
	if !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", d.Err())
	}

	// CountSized bounds by the bytes actually remaining: a count of a
	// million 8-byte items over an 8-byte payload cannot pass.
	var e2 Enc
	e2.Count(1 << 20)
	e2.U64(7)
	d2 := NewDec(e2.Bytes())
	if n := d2.CountSized(8); n != 0 || d2.Err() == nil {
		t.Fatalf("CountSized = %d err %v, want rejection", n, d2.Err())
	}

	// And a backed count passes.
	var e3 Enc
	e3.Count(2)
	e3.U64(1)
	e3.U64(2)
	d3 := NewDec(e3.Bytes())
	if n := d3.CountSized(8); n != 2 || d3.Err() != nil {
		t.Fatalf("CountSized = %d err %v, want 2", n, d3.Err())
	}
}

func TestDecStickyError(t *testing.T) {
	d := NewDec([]byte{1, 2})
	_ = d.U64() // short
	if d.Err() == nil {
		t.Fatal("short read not detected")
	}
	// Every later read stays zero, no panic.
	if d.U64() != 0 || d.Bool() || d.Raw(4) != nil || d.String(8) != "" {
		t.Fatal("reads after failure must return zero values")
	}
}

func TestFinishRejectsTrailing(t *testing.T) {
	var e Enc
	e.U64(1)
	e.U64(2)
	d := NewDec(e.Bytes())
	_ = d.U64()
	if err := d.Finish(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("finish = %v, want ErrCorrupt on trailing bytes", err)
	}
}

func TestSampler(t *testing.T) {
	var z Sampler
	if z.Enabled() {
		t.Fatal("zero sampler enabled")
	}
	if !z.Sampled(12345) {
		t.Fatal("zero sampler must observe everything")
	}
	s := Sampler{Measure: 10, Skip: 90}
	if !s.Enabled() || s.Period() != 100 {
		t.Fatalf("sampler = %+v", s)
	}
	for _, tc := range []struct {
		t    int64
		want bool
	}{{0, true}, {9, true}, {10, false}, {99, false}, {100, true}, {-5, true}} {
		if got := s.Sampled(tc.t); got != tc.want {
			t.Errorf("Sampled(%d) = %v, want %v", tc.t, got, tc.want)
		}
	}
}

// TestEncPageZeroTest pins the zero test behind Enc.Page's compression
// around its 4 KiB chunking: lengths 0 (a discarded flash page is nil),
// 1, 4095, 4096 and 4097, all-zero and with one non-zero byte first, in
// the middle and last. A zero page encodes as flag 1 and its length, any
// other as flag 0 and the bytes, and each decodes back through Dec.Page.
func TestEncPageZeroTest(t *testing.T) {
	for _, n := range []int{0, 1, 4095, 4096, 4097} {
		// The non-zero byte's index, -1 for none: first, middle, last.
		where := []int{-1}
		if n > 0 {
			where = append(where, 0, n/2, n-1)
		}
		for _, i := range where {
			p := make([]byte, n)
			if i >= 0 {
				p[i] = 0x5a
			}
			var e Enc
			e.Page(p)
			want := binary.LittleEndian.AppendUint64([]byte{1}, uint64(n))
			if i >= 0 {
				want = append(binary.LittleEndian.AppendUint64([]byte{0}, uint64(n)), p...)
			}
			if !bytes.Equal(e.Bytes(), want) {
				t.Errorf("len %d, byte %d set: wire % x, want % x", n, i, head(e.Bytes()), head(want))
				continue
			}
			d := NewDec(e.Bytes())
			if got := d.Page(n); !bytes.Equal(got, p) || d.Finish() != nil {
				t.Errorf("len %d, byte %d set: page does not decode back (err %v)", n, i, d.Err())
			}
		}
	}
}

// head trims a wire image for an error message.
func head(b []byte) []byte { return b[:min(len(b), 16)] }

// BenchmarkEncPage encodes one all-zero and one dirty 4 KiB page: the
// zero test scans the whole of the first and stops at the dirty byte of
// the second, which sits last.
func BenchmarkEncPage(b *testing.B) {
	zero := make([]byte, 4096)
	dirty := make([]byte, 4096)
	dirty[len(dirty)-1] = 1
	var e Enc
	b.ReportAllocs()
	b.SetBytes(2 * 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.b = e.b[:0]
		e.Page(zero)
		e.Page(dirty)
	}
}
