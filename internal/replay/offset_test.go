package replay

import (
	"bytes"
	"reflect"
	"testing"

	"hams/internal/mem"
	"hams/internal/trace"
)

// TestOffsetStreamRelocatesWithoutAllocs pins the offset wrapper over a
// workload stream: every step is the inner step with each address moved
// by the tenant's base, and after its first call Next allocates nothing.
func TestOffsetStreamRelocatesWithoutAllocs(t *testing.T) {
	const base = mem.GiB
	o := Options{Scale: 1e-5, Seed: 7}
	shifted, _, err := Tenant{Name: "bulk", Workload: "rndWr", Base: base}.streams(o)
	if err != nil {
		t.Fatal(err)
	}
	plain, _, err := Tenant{Name: "bulk", Workload: "rndWr"}.streams(o)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := shifted[0].(*offsetStream); !ok {
		t.Fatalf("a tenant with a base runs %T, want *offsetStream", shifted[0])
	}
	for i := 0; i < 100; i++ {
		got, ok := shifted[0].Next()
		want, okWant := plain[0].Next()
		if ok != okWant || got.Compute != want.Compute || len(got.Acc) != len(want.Acc) {
			t.Fatalf("step %d: shape differs from the unshifted stream", i)
		}
		for j, a := range want.Acc {
			a.Addr += base
			if got.Acc[j] != a {
				t.Fatalf("step %d access %d = %+v, want %+v", i, j, got.Acc[j], a)
			}
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, ok := shifted[0].Next(); !ok {
			panic("stream ended")
		}
	})
	if avg != 0 {
		t.Fatalf("offsetStream.Next allocates %.1f/op, want 0", avg)
	}
}

// TestOffsetStreamLeavesTraceIntact: a decoded trace's steps are shared
// by every run of its File, so relocating them must not write into them.
func TestOffsetStreamLeavesTraceIntact(t *testing.T) {
	var buf bytes.Buffer
	wo := Options{Scale: 1e-7, Seed: 3}.workloadOptions()
	if _, err := RecordWorkload(&buf, "rndIns", wo, AllThreads); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	f, err := trace.Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := trace.Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	ss, _, err := Tenant{Name: "recorded", Trace: f, Base: mem.GiB}.streams(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ss {
		for {
			if _, ok := s.Next(); !ok {
				break
			}
		}
	}
	if !reflect.DeepEqual(f, fresh) {
		t.Fatal("relocating a trace tenant changed the decoded trace")
	}
}
