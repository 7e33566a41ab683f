package workload

import "testing"

// TestStreamsZeroAllocs pins the step-buffer contract: after its first
// call, Next on every Table III stream builds its step in the stream's
// reused buffer and allocates nothing.
func TestStreamsZeroAllocs(t *testing.T) {
	const steps = 500
	for _, s := range All() {
		st := s.Streams(DefaultOptions())[0]
		// AllocsPerRun calls f once unmeasured, then once measured:
		// the unmeasured call makes exactly the stream's first Next,
		// the measured one the next 500, so one allocation anywhere
		// among them reads as a nonzero count.
		n := 1
		avg := testing.AllocsPerRun(1, func() {
			for i := 0; i < n; i++ {
				if _, ok := st.Next(); !ok {
					t.Fatalf("%s: stream ended before %d steps", s.Name, steps+1)
				}
			}
			n = steps
		})
		if avg != 0 {
			t.Errorf("%s: %.0f allocations over %d steps after the first, want 0", s.Name, avg, steps)
		}
	}
}

// BenchmarkStreamNext measures one step of each Table III workload's
// first thread. Scale 1 gives a budget no benchmark run exhausts.
func BenchmarkStreamNext(b *testing.B) {
	o := DefaultOptions()
	o.Scale = 1
	for _, s := range All() {
		b.Run(s.Name, func(b *testing.B) {
			st := s.Streams(o)[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := st.Next(); !ok {
					b.Fatal("stream exhausted")
				}
			}
		})
	}
}
