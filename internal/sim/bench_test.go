package sim

import "testing"

// benchHandler is a persistent sim.Handler; OnEvent only counts, so
// the benchmarks below time the heap, not the callback.
type benchHandler struct{ fired int64 }

func (h *benchHandler) OnEvent(at Time, a0, a1 int64) { h.fired++ }

// BenchmarkScheduleCallAdvance measures the steady-state event loop:
// one ScheduleCall plus the AdvanceTo that fires it, with the heap
// kept shallow (the common simulator shape: a handful of busy-clear /
// completion events pending at once).
func BenchmarkScheduleCallAdvance(b *testing.B) {
	e := NewEngine()
	h := &benchHandler{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := Time(i) * 10
		e.ScheduleCall(t+5, h, 0, int64(i))
		e.AdvanceTo(t + 10)
	}
	if h.fired != int64(b.N) {
		b.Fatalf("fired %d, want %d", h.fired, b.N)
	}
}

// BenchmarkScheduleCallDeepHeap keeps ~1024 events pending, so every
// push/pop pays the full sift depth of a realistically loaded heap.
func BenchmarkScheduleCallDeepHeap(b *testing.B) {
	const depth = 1024
	e := NewEngine()
	h := &benchHandler{}
	for i := 0; i < depth; i++ {
		e.ScheduleCall(Time(i)*10+5, h, 0, int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := Time(i) * 10
		e.ScheduleCall(t+depth*10+5, h, 0, int64(i))
		e.AdvanceTo(t + 10)
	}
	b.StopTimer()
	e.Drain()
}

// TestScheduleCallZeroAllocs pins the allocation-free contract of the
// handler-form event loop: once the heap slice has grown its spare
// capacity, schedule+fire allocates nothing.
func TestScheduleCallZeroAllocs(t *testing.T) {
	e := NewEngine()
	h := &benchHandler{}
	var now Time
	// Warm the heap's spare capacity.
	for i := 0; i < 64; i++ {
		e.ScheduleCall(now+5, h, 0, int64(i))
		now += 10
		e.AdvanceTo(now)
	}
	avg := testing.AllocsPerRun(200, func() {
		e.ScheduleCall(now+5, h, 0, 0)
		now += 10
		e.AdvanceTo(now)
	})
	if avg != 0 {
		t.Fatalf("schedule+fire allocates %.1f/op, want 0", avg)
	}
}
