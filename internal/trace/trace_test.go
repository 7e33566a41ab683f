package trace

import (
	"bufio"
	"bytes"
	"errors"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"hams/internal/cpu"
	"hams/internal/mem"
	"hams/internal/workload"
)

// v1Image builds a legacy v1 container, which nothing writes any more
// but Decode still reads: the header, then each step in the shared
// step codec.
func v1Image(t testing.TB, steps ...cpu.Step) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	bw.WriteString("SMAH\x01\x00\x00\x00")
	for _, s := range steps {
		if err := writeStep(bw, s); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeStream decodes a one-thread container and returns its stream.
func decodeStream(t *testing.T, raw []byte) (*File, cpu.Stream) {
	t.Helper()
	f, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	ss := f.StreamsFor("")
	if len(ss) != 1 {
		t.Fatalf("%d streams, want 1", len(ss))
	}
	return f, ss[0]
}

// TestRoundTrip: steps survive the codec in both container versions, a
// v1 image and a v2 one written by RecordAll, and replay in order
// with nothing after the last.
func TestRoundTrip(t *testing.T) {
	steps := []cpu.Step{
		{Compute: 10, Acc: []mem.Access{{Addr: 0x1000, Size: 64, Op: mem.Read}}},
		{Compute: 0, Acc: []mem.Access{
			{Addr: 0x2000, Size: 8, Op: mem.Write},
			{Addr: 0x3000, Size: 4096, Op: mem.Read},
		}},
		{Compute: 99},
	}
	var v2 bytes.Buffer
	n, err := RecordAll(&v2, "", []string{""}, nil, []cpu.Stream{&stepStream{steps: steps}})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("RecordAll recorded %d steps, want 3", n)
	}
	for _, raw := range [][]byte{v1Image(t, steps...), v2.Bytes()} {
		f, r := decodeStream(t, raw)
		if f.Steps() != 3 {
			t.Fatalf("v%d: Steps = %d", f.Version, f.Steps())
		}
		for i, want := range steps {
			got, ok := r.Next()
			if !ok {
				t.Fatalf("v%d: step %d missing", f.Version, i)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("v%d: step %d = %+v, want %+v", f.Version, i, got, want)
			}
		}
		if _, ok := r.Next(); ok {
			t.Fatalf("v%d: extra step", f.Version)
		}
	}
}

func TestBadHeader(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("notatrace"))); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Decode(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestTruncatedStream(t *testing.T) {
	raw := v1Image(t, cpu.Step{Compute: 1, Acc: []mem.Access{{Addr: 1, Size: 2}}})
	if f, err := Decode(bytes.NewReader(raw[:len(raw)-3])); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated step decoded: %+v, err %v", f, err)
	}
}

func TestRecordWorkloadStream(t *testing.T) {
	spec, _ := workload.ByName("rndSel")
	o := workload.DefaultOptions()
	o.Scale = 1e-7
	var buf bytes.Buffer
	n, err := RecordAll(&buf, spec.Name, []string{""}, nil, spec.Streams(o)[:1])
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing recorded")
	}
	// Replay must be identical to a fresh generation.
	_, r := decodeStream(t, buf.Bytes())
	fresh := spec.Streams(o)[0]
	for {
		a, okA := r.Next()
		b, okB := fresh.Next()
		if okA != okB {
			t.Fatal("length mismatch")
		}
		if !okA {
			break
		}
		if a.Compute != b.Compute || !slices.Equal(a.Acc, b.Acc) {
			t.Fatal("step mismatch")
		}
	}
}

// TestV2RoundTrip drives the v2 container: labels, warm regions, a
// container name, and interleaved multi-thread records.
func TestV2RoundTrip(t *testing.T) {
	f := &File{
		Version: Version2,
		Name:    "mix",
		Threads: []Thread{
			{Label: "tenantA", Steps: []cpu.Step{
				{Compute: 5, Acc: []mem.Access{{Addr: 0x100, Size: 64, Op: mem.Read}}},
				{Compute: 7},
			}},
			{Label: "tenantB", Steps: []cpu.Step{
				{Compute: 1, Acc: []mem.Access{
					{Addr: 0x2000, Size: 8, Op: mem.Write},
					{Addr: 0x3000, Size: 4096, Op: mem.Read},
				}},
			}},
		},
		Warm: []Region{{Base: 0, Size: 1 << 20}, {Base: 1 << 30, Size: 4096}},
	}
	var buf bytes.Buffer
	if err := Encode(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", f, got)
	}
	if labels := got.Labels(); !reflect.DeepEqual(labels, []string{"tenantA", "tenantB"}) {
		t.Fatalf("Labels = %v", labels)
	}
	if n := got.Steps(); n != 3 {
		t.Fatalf("Steps = %d", n)
	}
	if ss := got.StreamsFor("tenantB"); len(ss) != 1 {
		t.Fatalf("StreamsFor(tenantB) = %d streams", len(ss))
	}
}

// TestRecordAllInterleaves drains unequal-length streams and checks
// the demuxed result matches each input.
func TestRecordAllInterleaves(t *testing.T) {
	a := []cpu.Step{{Compute: 1}, {Compute: 2}, {Compute: 3}}
	b := []cpu.Step{{Compute: 10}}
	var buf bytes.Buffer
	n, err := RecordAll(&buf, "two", []string{"a", "b"}, nil,
		[]cpu.Stream{&stepStream{steps: a}, &stepStream{steps: b}})
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("steps = %d", n)
	}
	f, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Threads[0].Steps, a) || !reflect.DeepEqual(f.Threads[1].Steps, b) {
		t.Fatalf("demux mismatch: %+v", f.Threads)
	}
}

// TestStreamUnits: a replayed stream counts consumed steps as units.
func TestStreamUnits(t *testing.T) {
	s := &stepStream{steps: []cpu.Step{{Compute: 1}, {Compute: 2}}}
	if s.Units() != 0 {
		t.Fatal("units before consumption")
	}
	s.Next()
	s.Next()
	if _, ok := s.Next(); ok {
		t.Fatal("stream over-delivers")
	}
	if s.Units() != 2 {
		t.Fatalf("Units = %d", s.Units())
	}
}

// TestHugeCountRejected is the regression test for the decoder OOM: a
// step header declaring ~4 billion accesses must yield ErrCorrupt from
// the container decoder, in a v1 stream and in a v2 record, not an
// unbounded read loop. The v1 bytes are committed as a fuzz corpus
// entry (testdata/fuzz/FuzzTraceReader).
func TestHugeCountRejected(t *testing.T) {
	const step = "\x00\x00\x00\x00\x00\x00\x00\x00" + // compute
		"\xff\xff\xff\xff" // access count 2^32-1
	for _, raw := range []string{
		"SMAH\x01\x00\x00\x00" + step, // v1 header
		"SMAH\x02\x00\x00\x00" + "\x00\x00" + "\x01\x00\x00\x00" + "\x00\x00" +
			"\x00\x00\x00\x00" + "\x00\x00\x00\x00" + step, // v2: one thread, record for thread 0
	} {
		if _, err := Decode(strings.NewReader(raw)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Decode err = %v, want ErrCorrupt", err)
		}
	}
}

// TestV2Bounds: every v2 count field is validated before use.
func TestV2Bounds(t *testing.T) {
	v2hdr := "SMAH\x02\x00\x00\x00"
	cases := map[string][]byte{
		"huge thread count": []byte(v2hdr + "\x00\x00" + "\xff\xff\xff\xff"),
		"zero threads":      []byte(v2hdr + "\x00\x00" + "\x00\x00\x00\x00"),
		"huge label":        []byte(v2hdr + "\x00\x00" + "\x01\x00\x00\x00" + "\xff\xff"),
		"huge warm count": []byte(v2hdr + "\x00\x00" + "\x01\x00\x00\x00" + "\x00\x00" +
			"\xff\xff\xff\xff"),
		"thread id out of range": []byte(v2hdr + "\x00\x00" + "\x01\x00\x00\x00" + "\x00\x00" +
			"\x00\x00\x00\x00" + "\x07\x00\x00\x00"),
	}
	for name, raw := range cases {
		if _, err := Decode(bytes.NewReader(raw)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestWriterV2Bounds: the writer refuses inputs the decoder would
// reject, so every written trace is decodable.
func TestWriterV2Bounds(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriterV2(&buf, "x", nil, nil); err == nil {
		t.Fatal("zero threads accepted")
	}
	if _, err := NewWriterV2(&buf, "x", []string{string(make([]byte, MaxLabel+1))}, nil); err == nil {
		t.Fatal("oversized label accepted")
	}
	w, err := NewWriterV2(&buf, "x", []string{"a"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteStep(1, cpu.Step{}); err == nil {
		t.Fatal("out-of-range thread accepted")
	}
}

// TestV1FixtureBackwardCompat decodes a committed pre-v2 trace through
// the v2 Decode path: old recordings must stay readable forever. The
// pinned counts were recorded when the fixture was generated (rndSel
// thread 0, scale 1e-8, seed 42).
func TestV1FixtureBackwardCompat(t *testing.T) {
	raw, err := os.ReadFile("testdata/v1_rndsel.trace")
	if err != nil {
		t.Fatal(err)
	}
	f, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if f.Version != Version1 || len(f.Threads) != 1 || len(f.Warm) != 0 {
		t.Fatalf("shape = v%d, %d threads, %d warm", f.Version, len(f.Threads), len(f.Warm))
	}
	if n := len(f.Threads[0].Steps); n != 6 {
		t.Fatalf("steps = %d, want 6", n)
	}
	var accesses, loads, compute int64
	for _, s := range f.Threads[0].Steps {
		compute += s.Compute
		for _, a := range s.Acc {
			accesses++
			if a.Op == mem.Read {
				loads++
			}
		}
	}
	if accesses != 1098 || loads != 618 || compute != 1296 {
		t.Fatalf("accesses=%d loads=%d compute=%d, want 1098/618/1296", accesses, loads, compute)
	}
}

// Property: arbitrary steps survive the codec.
func TestCodecProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var steps []cpu.Step
		for i := 0; i < int(n%20); i++ {
			s := cpu.Step{Compute: rng.Int63n(1000)}
			for j := 0; j < rng.Intn(5); j++ {
				s.Acc = append(s.Acc, mem.Access{
					Addr: rng.Uint64(), Size: uint32(rng.Intn(1 << 20)), Op: mem.Op(rng.Intn(2)),
				})
			}
			steps = append(steps, s)
		}
		var buf bytes.Buffer
		if _, err := RecordAll(&buf, "", []string{""}, nil, []cpu.Stream{&stepStream{steps: steps}}); err != nil {
			return false
		}
		file, err := Decode(&buf)
		if err != nil || len(file.Threads) != 1 {
			return false
		}
		r := file.StreamsFor("")[0]
		for _, want := range steps {
			got, ok := r.Next()
			if !ok || got.Compute != want.Compute || !slices.Equal(got.Acc, want.Acc) {
				return false
			}
		}
		_, ok := r.Next()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
