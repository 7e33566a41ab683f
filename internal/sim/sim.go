// Package sim provides the timing substrate used by every device model
// in the HAMS simulator: a virtual nanosecond clock, an event heap for
// deferred state mutation, and occupancy-based queueing resources.
//
// The simulator uses a hybrid style. Device service times are computed
// analytically by Resource/Pool occupancy models (a request arriving at
// time t on a busy server starts at max(t, nextFree)), which is exact
// for FCFS servers fed with nondecreasing arrival times. Anything that
// must mutate shared state at a future instant (busy-bit clearing,
// wait-queue release, refresh windows) is registered on the Engine's
// event heap and applied lazily by AdvanceTo before the next access.
//
// The heap is a value-typed 4-ary min-heap ordered by (At, seq): nodes
// live inline in one slice, so scheduling an event allocates nothing in
// steady state (the slice's spare capacity is the free list) and firing
// order is the same total order the previous pointer-heap used. Every
// event goes through ScheduleCall with a persistent Handler, so no
// closure is captured per event.
package sim

import (
	"fmt"
)

// Time is a simulation timestamp in nanoseconds.
type Time int64

// Common durations, in nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds returns the time in seconds as a float.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns the time in microseconds as a float.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// MaxTime is the largest representable simulation time.
const MaxTime = Time(1<<63 - 1)

// Handler receives deferred events scheduled with ScheduleCall. A
// single persistent object (a controller bank, a device) implements it
// and demultiplexes on a0/a1, so the hot path never allocates a
// closure per event.
type Handler interface {
	// OnEvent runs when the clock reaches the event. at is the time the
	// event was scheduled for (the clock may already be there); a0 and
	// a1 are the arguments given to ScheduleCall.
	OnEvent(at Time, a0, a1 int64)
}

// EventID identifies a scheduled event for Cancel. The zero EventID
// never matches a real event.
type EventID int64

// eventNode is one pending event, stored by value in the heap slice.
type eventNode struct {
	at  Time
	seq int64 // tie-break so equal-time events run in schedule order
	h   Handler
	a0  int64
	a1  int64
}

// Engine owns the virtual clock and the event heap.
// The zero value is ready to use at time zero.
type Engine struct {
	now   Time
	nodes []eventNode // 4-ary min-heap ordered by (at, seq)
	seq   int64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

func (e *Engine) less(i, j int) bool {
	if e.nodes[i].at != e.nodes[j].at {
		return e.nodes[i].at < e.nodes[j].at
	}
	return e.nodes[i].seq < e.nodes[j].seq
}

func (e *Engine) siftUp(i int) {
	for i > 0 {
		p := (i - 1) >> 2
		if !e.less(i, p) {
			break
		}
		e.nodes[i], e.nodes[p] = e.nodes[p], e.nodes[i]
		i = p
	}
}

func (e *Engine) siftDown(i int) {
	n := len(e.nodes)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		hi := c + 4
		if hi > n {
			hi = n
		}
		for k := c + 1; k < hi; k++ {
			if e.less(k, m) {
				m = k
			}
		}
		if !e.less(m, i) {
			break
		}
		e.nodes[i], e.nodes[m] = e.nodes[m], e.nodes[i]
		i = m
	}
}

func (e *Engine) push(n eventNode) {
	e.nodes = append(e.nodes, n)
	e.siftUp(len(e.nodes) - 1)
}

// popMin removes and returns the earliest node. len(e.nodes) must be > 0.
func (e *Engine) popMin() eventNode {
	top := e.nodes[0]
	last := len(e.nodes) - 1
	e.nodes[0] = e.nodes[last]
	e.nodes[last] = eventNode{} // release the handler reference
	e.nodes = e.nodes[:last]
	if last > 0 {
		e.siftDown(0)
	}
	return top
}

// ScheduleCall registers h.OnEvent(at, a0, a1) to run at time at.
// Scheduling in the past (at < now) runs the event at the current time
// on the next AdvanceTo. The handler is a persistent object, so
// scheduling captures no closure and allocates nothing in steady state.
func (e *Engine) ScheduleCall(at Time, h Handler, a0, a1 int64) EventID {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.push(eventNode{at: at, seq: e.seq, h: h, a0: a0, a1: a1})
	return EventID(e.seq)
}

// Cancel removes a pending event. Cancelling an already-fired,
// already-cancelled or zero EventID is a no-op. Cancel is O(n) over
// pending events — it exists for tests and recovery paths, never the
// per-access hot path.
func (e *Engine) Cancel(id EventID) {
	if id == 0 {
		return
	}
	for i := range e.nodes {
		if e.nodes[i].seq == int64(id) {
			last := len(e.nodes) - 1
			e.nodes[i] = e.nodes[last]
			e.nodes[last] = eventNode{}
			e.nodes = e.nodes[:last]
			if i < last {
				e.siftDown(i)
				e.siftUp(i)
			}
			return
		}
	}
}

// Pending reports the number of events still queued.
func (e *Engine) Pending() int { return len(e.nodes) }

// NextEventAt returns the timestamp of the earliest pending event, or
// MaxTime when the heap is empty.
func (e *Engine) NextEventAt() Time {
	if len(e.nodes) == 0 {
		return MaxTime
	}
	return e.nodes[0].at
}

// fire pops the earliest node, advances the clock to it and runs it.
func (e *Engine) fire() {
	n := e.popMin()
	if n.at > e.now {
		e.now = n.at
	}
	n.h.OnEvent(n.at, n.a0, n.a1)
}

// AdvanceTo moves the clock forward to t, firing every event with
// At <= t in timestamp order. Events scheduled by fired callbacks are
// honored if they also fall at or before t. AdvanceTo never moves the
// clock backwards.
func (e *Engine) AdvanceTo(t Time) {
	for len(e.nodes) > 0 && e.nodes[0].at <= t {
		e.fire()
	}
	if t > e.now {
		e.now = t
	}
}

// Drain fires every pending event in order and leaves the clock at the
// time of the last event. It returns the number of events fired.
func (e *Engine) Drain() int {
	n := 0
	for len(e.nodes) > 0 {
		e.fire()
		n++
	}
	return n
}

// Reset clears all pending events and rewinds the clock to zero.
func (e *Engine) Reset() {
	e.now = 0
	e.nodes = nil
	e.seq = 0
}
