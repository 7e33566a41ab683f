package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// callback adapts a closure to Handler, so the ordering tests below
// can record what fired inline.
type callback func(Time)

func (f callback) OnEvent(at Time, _, _ int64) { f(at) }

// schedule registers f to run at time at.
func schedule(e *Engine, at Time, f func(Time)) EventID {
	return e.ScheduleCall(at, callback(f), 0, 0)
}

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestScheduleFiresInOrder(t *testing.T) {
	e := NewEngine()
	var fired []Time
	schedule(e, 30, func(now Time) { fired = append(fired, now) })
	schedule(e, 10, func(now Time) { fired = append(fired, now) })
	schedule(e, 20, func(now Time) { fired = append(fired, now) })
	e.AdvanceTo(25)
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 20 {
		t.Fatalf("fired = %v, want [10 20]", fired)
	}
	if e.Now() != 25 {
		t.Fatalf("Now() = %v, want 25", e.Now())
	}
	e.AdvanceTo(100)
	if len(fired) != 3 || fired[2] != 30 {
		t.Fatalf("fired = %v, want third event at 30", fired)
	}
}

func TestEqualTimeEventsFireInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		schedule(e, 5, func(Time) { order = append(order, i) })
	}
	e.AdvanceTo(5)
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestScheduleInPastClampsToNow(t *testing.T) {
	e := NewEngine()
	e.AdvanceTo(100)
	var at Time = -1
	schedule(e, 50, func(now Time) { at = now })
	e.AdvanceTo(100)
	if at != 100 {
		t.Fatalf("past event fired at %v, want 100", at)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var fired []Time
	schedule(e, 10, func(now Time) {
		fired = append(fired, now)
		schedule(e, now+5, func(n2 Time) { fired = append(fired, n2) })
	})
	e.AdvanceTo(20)
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Fatalf("fired = %v, want [10 15]", fired)
	}
}

func TestNestedSchedulingBeyondHorizonDefers(t *testing.T) {
	e := NewEngine()
	var fired []Time
	schedule(e, 10, func(now Time) {
		schedule(e, now+100, func(n2 Time) { fired = append(fired, n2) })
	})
	e.AdvanceTo(20)
	if len(fired) != 0 {
		t.Fatalf("event beyond horizon fired early: %v", fired)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
	e.AdvanceTo(200)
	if len(fired) != 1 || fired[0] != 110 {
		t.Fatalf("fired = %v, want [110]", fired)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := schedule(e, 10, func(Time) { fired = true })
	e.Cancel(ev)
	e.AdvanceTo(20)
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Double cancel and cancel-after-fire must not panic.
	e.Cancel(ev)
	ev2 := schedule(e, 30, func(Time) {})
	e.AdvanceTo(40)
	e.Cancel(ev2)
}

func TestDrain(t *testing.T) {
	e := NewEngine()
	for i := 1; i <= 5; i++ {
		schedule(e, Time(i*10), func(Time) {})
	}
	n := e.Drain()
	if n != 5 {
		t.Fatalf("Drain fired %d, want 5", n)
	}
	if e.Now() != 50 {
		t.Fatalf("Now() = %v, want 50", e.Now())
	}
}

func TestCancelMiddleEventPreservesOrder(t *testing.T) {
	e := NewEngine()
	var fired []Time
	schedule(e, 10, func(n Time) { fired = append(fired, n) })
	mid := schedule(e, 20, func(n Time) { fired = append(fired, n) })
	schedule(e, 30, func(n Time) { fired = append(fired, n) })
	e.Cancel(mid)
	e.AdvanceTo(40)
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 30 {
		t.Fatalf("fired = %v, want [10 30]", fired)
	}
}

func TestCancelFromInsideCallback(t *testing.T) {
	e := NewEngine()
	fired := false
	var victim EventID
	schedule(e, 10, func(Time) { e.Cancel(victim) })
	victim = schedule(e, 20, func(Time) { fired = true })
	e.AdvanceTo(30)
	if fired {
		t.Fatal("event cancelled by an earlier callback still fired")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after cancel-in-callback", e.Pending())
	}
}

func TestDrainFiresNestedEvents(t *testing.T) {
	e := NewEngine()
	var fired []Time
	schedule(e, 10, func(now Time) {
		fired = append(fired, now)
		schedule(e, now+100, func(n2 Time) { fired = append(fired, n2) })
	})
	n := e.Drain()
	if n != 2 {
		t.Fatalf("Drain fired %d, want 2 (nested event included)", n)
	}
	if len(fired) != 2 || fired[1] != 110 || e.Now() != 110 {
		t.Fatalf("fired = %v, now = %v", fired, e.Now())
	}
}

func TestDrainEmptyIsNoop(t *testing.T) {
	e := NewEngine()
	e.AdvanceTo(42)
	if n := e.Drain(); n != 0 {
		t.Fatalf("Drain on empty heap fired %d", n)
	}
	if e.Now() != 42 {
		t.Fatalf("Drain moved the clock to %v", e.Now())
	}
}

func TestPastEventsFireInScheduleOrder(t *testing.T) {
	// Several events scheduled in the past all clamp to now and must
	// fire in the order they were scheduled, before any future event.
	e := NewEngine()
	e.AdvanceTo(100)
	var fired []int
	schedule(e, 150, func(Time) { fired = append(fired, 99) })
	for i := 0; i < 3; i++ {
		i := i
		schedule(e, Time(10*i), func(Time) { fired = append(fired, i) })
	}
	e.AdvanceTo(200)
	want := []int{0, 1, 2, 99}
	if len(fired) != 4 {
		t.Fatalf("fired = %v", fired)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

func TestNextEventAt(t *testing.T) {
	e := NewEngine()
	e.AdvanceTo(100)
	var at Time = -1
	schedule(e, e.Now()+25, func(now Time) { at = now })
	if next := e.NextEventAt(); next != 125 {
		t.Fatalf("NextEventAt = %v, want 125", next)
	}
	e.AdvanceTo(200)
	if at != 125 {
		t.Fatalf("event fired at %v, want 125", at)
	}
	if e.NextEventAt() != MaxTime {
		t.Fatal("NextEventAt on empty heap must be MaxTime")
	}
}

func TestAdvanceToNeverRewinds(t *testing.T) {
	e := NewEngine()
	e.AdvanceTo(100)
	e.AdvanceTo(50)
	if e.Now() != 100 {
		t.Fatalf("Now() = %v, want 100 (no rewind)", e.Now())
	}
}

func TestEngineReset(t *testing.T) {
	e := NewEngine()
	schedule(e, 10, func(Time) {})
	e.AdvanceTo(5)
	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 {
		t.Fatalf("after Reset: now=%v pending=%d", e.Now(), e.Pending())
	}
}

func TestResourceFCFS(t *testing.T) {
	r := NewResource()
	s, d := r.Acquire(0, 10)
	if s != 0 || d != 10 {
		t.Fatalf("first: start=%v done=%v", s, d)
	}
	// Arrives while busy: queues.
	s, d = r.Acquire(5, 10)
	if s != 10 || d != 20 {
		t.Fatalf("second: start=%v done=%v, want 10,20", s, d)
	}
	// Arrives after idle: starts immediately.
	s, d = r.Acquire(50, 5)
	if s != 50 || d != 55 {
		t.Fatalf("third: start=%v done=%v, want 50,55", s, d)
	}
	if r.Served() != 3 {
		t.Fatalf("Served() = %d, want 3", r.Served())
	}
	if r.BusyTime() != 25 {
		t.Fatalf("BusyTime() = %v, want 25", r.BusyTime())
	}
	if r.QueueDelay() != 5 {
		t.Fatalf("QueueDelay() = %v, want 5", r.QueueDelay())
	}
}

func TestResourcePeekDoesNotReserve(t *testing.T) {
	r := NewResource()
	r.Acquire(0, 100)
	if got := r.Peek(10); got != 100 {
		t.Fatalf("Peek(10) = %v, want 100", got)
	}
	if got := r.Peek(200); got != 200 {
		t.Fatalf("Peek(200) = %v, want 200", got)
	}
	if r.Served() != 1 {
		t.Fatal("Peek changed state")
	}
}

func TestPoolDispatchesToEarliestFree(t *testing.T) {
	p := NewPool(2)
	_, d1 := p.Acquire(0, 10)
	_, d2 := p.Acquire(0, 10)
	if d1 != 10 || d2 != 10 {
		t.Fatalf("two servers should run in parallel: %v %v", d1, d2)
	}
	s3, d3 := p.Acquire(0, 10)
	if s3 != 10 || d3 != 20 {
		t.Fatalf("third request: start=%v done=%v, want 10,20", s3, d3)
	}
}

func TestPoolAcquireServer(t *testing.T) {
	p := NewPool(4)
	_, d := p.AcquireServer(2, 5, 7)
	if d != 12 {
		t.Fatalf("done = %v, want 12", d)
	}
	if p.ServerNextFree(2) != 12 {
		t.Fatalf("ServerNextFree(2) = %v", p.ServerNextFree(2))
	}
	if p.ServerNextFree(0) != 0 {
		t.Fatalf("ServerNextFree(0) = %v, want 0", p.ServerNextFree(0))
	}
	s, _ := p.AcquireServer(2, 5, 1)
	if s != 12 {
		t.Fatalf("queued start = %v, want 12", s)
	}
}

func TestPoolMinSize(t *testing.T) {
	p := NewPool(0)
	if p.Size() != 1 {
		t.Fatalf("Size() = %d, want clamped to 1", p.Size())
	}
}

func TestBandwidth(t *testing.T) {
	// 4 KB at 4 GB/s = 1024 ns.
	if got := Bandwidth(4096, 4); got != 1024 {
		t.Fatalf("Bandwidth(4096, 4) = %v, want 1024", got)
	}
	// 4 KB at 20 GB/s ≈ 205 ns (rounded).
	if got := Bandwidth(4096, 20); got != 205 {
		t.Fatalf("Bandwidth(4096, 20) = %v, want 205", got)
	}
	if got := Bandwidth(0, 4); got != 0 {
		t.Fatalf("Bandwidth(0,4) = %v, want 0", got)
	}
	if got := Bandwidth(100, 0); got != 0 {
		t.Fatalf("Bandwidth(100,0) = %v, want 0", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500us"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

// recorder collects handler events for ScheduleCall tests.
type recorder struct {
	got [][3]int64
}

func (r *recorder) OnEvent(at Time, a0, a1 int64) {
	r.got = append(r.got, [3]int64{int64(at), a0, a1})
}

func TestScheduleCallFiresWithArgs(t *testing.T) {
	e := NewEngine()
	r := &recorder{}
	e.ScheduleCall(20, r, 7, 8)
	e.ScheduleCall(10, r, 1, 2)
	e.AdvanceTo(30)
	want := [][3]int64{{10, 1, 2}, {20, 7, 8}}
	if len(r.got) != 2 || r.got[0] != want[0] || r.got[1] != want[1] {
		t.Fatalf("got %v, want %v", r.got, want)
	}
}

func TestScheduleCallPassesScheduledTime(t *testing.T) {
	// An event scheduled in the past clamps to now; the handler must
	// receive the clamped (effective) schedule time.
	e := NewEngine()
	e.AdvanceTo(100)
	r := &recorder{}
	e.ScheduleCall(50, r, 0, 0)
	e.AdvanceTo(100)
	if len(r.got) != 1 || r.got[0][0] != 100 {
		t.Fatalf("got %v, want at=100", r.got)
	}
}

// Events from different handlers share one (at, seq) order.
func TestScheduleCallAndScheduleShareOrdering(t *testing.T) {
	e := NewEngine()
	r := &recorder{}
	var order []int64
	schedule(e, 5, func(Time) { order = append(order, -1) })
	e.ScheduleCall(5, r, 10, 0)
	schedule(e, 5, func(Time) { order = append(order, -2) })
	e.AdvanceTo(5)
	if len(r.got) != 1 {
		t.Fatalf("handler events = %v", r.got)
	}
	// Callback at seq1 fired first, recorder second, callback at seq3 last.
	if len(order) != 2 || order[0] != -1 || order[1] != -2 {
		t.Fatalf("callback order = %v", order)
	}
}

func TestCancelScheduleCall(t *testing.T) {
	e := NewEngine()
	r := &recorder{}
	id := e.ScheduleCall(10, r, 1, 1)
	e.Cancel(id)
	e.AdvanceTo(20)
	if len(r.got) != 0 {
		t.Fatalf("cancelled handler event fired: %v", r.got)
	}
	e.Cancel(id) // double cancel is a no-op
	e.Cancel(0)  // zero id is a no-op
}

// Property: for any set of events, AdvanceTo(max) fires all of them in
// nondecreasing timestamp order.
func TestEventOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		e := NewEngine()
		var fired []Time
		var max Time
		for _, r := range raw {
			at := Time(r)
			if at > max {
				max = at
			}
			schedule(e, at, func(now Time) { fired = append(fired, now) })
		}
		e.AdvanceTo(max)
		if len(fired) != len(raw) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a FCFS resource fed nondecreasing arrivals never has a
// request start before its arrival nor before the previous completion.
func TestResourceFCFSProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewResource()
		var arrive, prevDone Time
		for i := 0; i < int(n); i++ {
			arrive += Time(rng.Intn(50))
			svc := Time(rng.Intn(30) + 1)
			start, done := r.Acquire(arrive, svc)
			if start < arrive || start < prevDone || done != start+svc {
				return false
			}
			prevDone = done
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a Pool of k servers is work-conserving: total busy time
// never exceeds k * makespan, and equals the sum of service times.
func TestPoolWorkConservationProperty(t *testing.T) {
	f := func(seed int64, n uint8, k uint8) bool {
		servers := int(k%8) + 1
		rng := rand.New(rand.NewSource(seed))
		p := NewPool(servers)
		var arrive, makespan, totalSvc Time
		for i := 0; i < int(n); i++ {
			arrive += Time(rng.Intn(20))
			svc := Time(rng.Intn(30) + 1)
			totalSvc += svc
			_, done := p.Acquire(arrive, svc)
			if done > makespan {
				makespan = done
			}
		}
		if p.BusyTime() != totalSvc {
			return false
		}
		return p.BusyTime() <= Time(servers)*makespan
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
