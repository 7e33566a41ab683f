package checkpoint

import (
	"bytes"
	"testing"
)

// FuzzCheckpointReader drives Decode with arbitrary bytes. The
// invariants: no panic, no unbounded allocation (the container limits
// make a lying count fail before it is trusted), and anything that
// decodes re-encodes and re-decodes losslessly.
func FuzzCheckpointReader(f *testing.F) {
	// A small valid image.
	var valid bytes.Buffer
	if err := Encode(&valid, sampleImage()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	// Truncations, bare headers, wrong magic/version (v1 predates the
	// FTL section reshape), garbage.
	f.Add(valid.Bytes()[:len(valid.Bytes())-3])
	f.Add([]byte("HAMC\x02\x00\x00\x00"))
	f.Add([]byte("HAMC\x01\x00\x00\x00"))
	f.Add([]byte("SMAH\x02\x00\x00\x00"))
	f.Add([]byte("not a checkpoint"))
	// The count-OOM shapes from TestHugeCountRejected.
	f.Add([]byte("HAMC\x02\x00\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Add([]byte("HAMC\x02\x00\x00\x00" +
		"\x00\x00\x00\x00\x00\x00\x00\x00" + // platform ""
		"\x00\x00\x00\x00\x00\x00\x00\x00" + // simTime
		"\x00\x00\x00\x00\x00\x00\x00\x00" + // warmup
		"\xff\xff\xff\xff")) // 2^32-1 sections

	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(img.Sections) > MaxSections {
			t.Fatalf("%d sections escaped the bound", len(img.Sections))
		}
		var buf bytes.Buffer
		if err := Encode(&buf, img); err != nil {
			t.Fatalf("re-encode of decoded image failed: %v", err)
		}
		img2, err := Decode(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if img2.Platform != img.Platform || img2.SimTime != img.SimTime ||
			img2.Warmup != img.Warmup || len(img2.Sections) != len(img.Sections) {
			t.Fatal("round trip not lossless")
		}
		for i := range img.Sections {
			if img2.Sections[i].Name != img.Sections[i].Name ||
				!bytes.Equal(img2.Sections[i].Data, img.Sections[i].Data) {
				t.Fatalf("section %d not lossless", i)
			}
		}
	})
}
