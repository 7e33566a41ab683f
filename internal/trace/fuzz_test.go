package trace

import (
	"bytes"
	"reflect"
	"testing"

	"hams/internal/cpu"
	"hams/internal/mem"
)

// FuzzTraceReader feeds arbitrary bytes to the container decoder,
// which reads v1 and v2. Traces are attacker-controlled input — users
// replay files they did not record — so the decoder must never panic,
// loop unboundedly, or let a wire count drive an allocation; and any
// input that decodes must survive a re-encode → re-decode round trip
// unchanged.
func FuzzTraceReader(f *testing.F) {
	// Valid v1 stream: the header, then two steps, each compute (8 B)
	// and access count (4 B), then 13 B per access.
	v1 := []byte("SMAH\x01\x00\x00\x00" +
		"\x03\x00\x00\x00\x00\x00\x00\x00" + "\x01\x00\x00\x00" + // compute 3, one access:
		"\x00\x10\x00\x00\x00\x00\x00\x00" + "\x40\x00\x00\x00" + "\x00" + // 64 B read at 0x1000
		"\x09\x00\x00\x00\x00\x00\x00\x00" + "\x00\x00\x00\x00") // compute 9, no access
	f.Add(v1)
	// Valid v2 container with labels and warm regions.
	var v2 bytes.Buffer
	Encode(&v2, &File{
		Version: Version2,
		Name:    "seed",
		Threads: []Thread{
			{Label: "a", Steps: []cpu.Step{{Compute: 1, Acc: []mem.Access{{Addr: 8, Size: 8, Op: mem.Write}}}}},
			{Label: "b", Steps: []cpu.Step{{Compute: 2}}},
		},
		Warm: []Region{{Base: 0, Size: 4096}},
	})
	f.Add(v2.Bytes())
	// Truncated v1, bare headers, garbage.
	f.Add(v1[:len(v1)-3])
	f.Add([]byte("SMAH\x01\x00\x00\x00"))
	f.Add([]byte("SMAH\x02\x00\x00\x00"))
	f.Add([]byte("not a trace at all"))
	// The count-OOM regression: a step declaring 2^32-1 accesses.
	f.Add([]byte("SMAH\x01\x00\x00\x00" +
		"\x00\x00\x00\x00\x00\x00\x00\x00" + "\xff\xff\xff\xff"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Container decode (v1 + v2).
		f1, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, th := range f1.Threads {
			for _, s := range th.Steps {
				if len(s.Acc) > MaxStepAccesses {
					t.Fatalf("step with %d accesses escaped the bound", len(s.Acc))
				}
			}
		}
		// Round trip: anything that decodes re-encodes losslessly.
		var buf bytes.Buffer
		if err := Encode(&buf, f1); err != nil {
			t.Fatalf("re-encode of decoded trace failed: %v", err)
		}
		f2, err := Decode(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		f1.Version = Version2 // Encode always writes v2
		if !reflect.DeepEqual(f1, f2) {
			t.Fatalf("round trip mismatch:\nfirst  %+v\nsecond %+v", f1, f2)
		}
	})
}
