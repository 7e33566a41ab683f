package cpu

import (
	"testing"

	"hams/internal/mem"
	"hams/internal/sim"
)

func TestCacheHitAfterMiss(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 1024, Ways: 2, LineBytes: 64})
	hit, _, _ := c.Lookup(0, false)
	if hit {
		t.Fatal("cold cache must miss")
	}
	hit, _, _ = c.Lookup(32, false) // same line
	if !hit {
		t.Fatal("same-line access must hit")
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2 ways, 1 set of interest: lines 0, S, 2S map to set 0 where
	// S = nsets*64.
	c := NewCache(CacheConfig{SizeBytes: 256, Ways: 2, LineBytes: 64}) // 2 sets
	s := uint64(2 * 64)
	c.Lookup(0, true)               // set0 way0, dirty
	c.Lookup(s, false)              // set0 way1
	c.Lookup(0, false)              // touch line 0 (now MRU)
	_, v, d := c.Lookup(2*s, false) // evicts line s (LRU, clean)
	if d {
		t.Fatalf("expected clean victim, got dirty at %#x", v)
	}
	// Line 0 must still be resident.
	if hit, _, _ := c.Lookup(0, false); !hit {
		t.Fatal("LRU evicted the MRU line")
	}
}

func TestCacheDirtyVictim(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 128, Ways: 1, LineBytes: 64}) // 2 sets, direct
	s := uint64(2 * 64)
	c.Lookup(0, true) // dirty
	_, v, d := c.Lookup(s, false)
	if !d || v != 0 {
		t.Fatalf("victim=%#x dirty=%v, want 0,true", v, d)
	}
}

// flatMem is a fixed-latency memory system for runner tests.
type flatMem struct {
	lat      sim.Time
	accesses int
	writes   int
	res      *sim.Resource
}

func (f *flatMem) Access(t sim.Time, a mem.Access) (MemResult, error) {
	f.accesses++
	if a.Op == mem.Write {
		f.writes++
	}
	_, done := f.res.Acquire(t, f.lat)
	return MemResult{Done: done, Mem: f.lat}, nil
}

// sliceStream replays a fixed set of steps.
type sliceStream struct {
	steps []Step
	i     int
}

func (s *sliceStream) Next() (Step, bool) {
	if s.i >= len(s.steps) {
		return Step{}, false
	}
	st := s.steps[s.i]
	s.i++
	return st, true
}

func TestRunnerCountsInstructions(t *testing.T) {
	m := &flatMem{lat: 100, res: sim.NewResource()}
	r := NewRunner(DefaultConfig(), m)
	st, err := r.Run([]Stream{&sliceStream{steps: []Step{
		{Compute: 100, Acc: []mem.Access{{Addr: 0, Size: 8, Op: mem.Read}}},
		{Compute: 50, Acc: []mem.Access{{Addr: 1 << 30, Size: 8, Op: mem.Read}}},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Instructions != 152 {
		t.Fatalf("instructions = %d, want 152", st.Instructions)
	}
	if st.MemAccesses != 2 {
		t.Fatalf("mem accesses = %d", st.MemAccesses)
	}
	if st.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
}

func TestRunnerCacheFiltersMemTraffic(t *testing.T) {
	m := &flatMem{lat: 1000, res: sim.NewResource()}
	r := NewRunner(DefaultConfig(), m)
	// 100 accesses to one line: only the first reaches memory.
	steps := make([]Step, 100)
	for i := range steps {
		steps[i] = Step{Acc: []mem.Access{{Addr: 0, Size: 8, Op: mem.Read}}}
	}
	st, err := r.Run([]Stream{&sliceStream{steps: steps}})
	if err != nil {
		t.Fatal(err)
	}
	if m.accesses != 1 {
		t.Fatalf("memory saw %d accesses, want 1", m.accesses)
	}
	if st.L1Hits != 99 {
		t.Fatalf("L1 hits = %d", st.L1Hits)
	}
}

func TestRunnerDirtyEvictionReachesMemory(t *testing.T) {
	m := &flatMem{lat: 100, res: sim.NewResource()}
	cfg := DefaultConfig()
	cfg.L1 = CacheConfig{SizeBytes: 128, Ways: 1, LineBytes: 64}
	cfg.L2 = CacheConfig{SizeBytes: 256, Ways: 1, LineBytes: 64}
	r := NewRunner(cfg, m)
	// Write a line, then march over conflicting lines to force the
	// dirty line out of both levels.
	var steps []Step
	steps = append(steps, Step{Acc: []mem.Access{{Addr: 0, Size: 8, Op: mem.Write}}})
	for i := 1; i <= 8; i++ {
		steps = append(steps, Step{Acc: []mem.Access{{Addr: uint64(i) * 256, Size: 8, Op: mem.Read}}})
	}
	if _, err := r.Run([]Stream{&sliceStream{steps: steps}}); err != nil {
		t.Fatal(err)
	}
	if m.writes == 0 {
		t.Fatal("dirty eviction never reached the memory system")
	}
}

// pipelinedMem serves any number of requests concurrently at a fixed
// latency — an idealized non-blocking memory system whose stalls
// overlap completely across cores.
type pipelinedMem struct{ lat sim.Time }

func (p *pipelinedMem) Access(t sim.Time, a mem.Access) (MemResult, error) {
	return MemResult{Done: t + p.lat, Mem: p.lat}, nil
}

// TestRunnerOverlapStall: two cores missing to a fully pipelined
// memory at the same instants stall concurrently, so nearly all of
// the second core's stall is overlap; one core alone reports none.
func TestRunnerOverlapStall(t *testing.T) {
	mkSteps := func(base uint64) []Step {
		steps := make([]Step, 8)
		for i := range steps {
			// Distinct lines, no compute: every access misses L1/L2
			// and stalls on memory immediately.
			steps[i] = Step{Acc: []mem.Access{{Addr: base + uint64(i)*4096, Size: 8, Op: mem.Read}}}
		}
		return steps
	}
	solo, err := NewRunner(DefaultConfig(), &pipelinedMem{lat: 10000}).
		Run([]Stream{&sliceStream{steps: mkSteps(0)}})
	if err != nil {
		t.Fatal(err)
	}
	if solo.OverlapStall != 0 {
		t.Fatalf("single core reported OverlapStall %v, want 0", solo.OverlapStall)
	}
	duo, err := NewRunner(DefaultConfig(), &pipelinedMem{lat: 10000}).
		Run([]Stream{
			&sliceStream{steps: mkSteps(0)},
			&sliceStream{steps: mkSteps(1 << 30)},
		})
	if err != nil {
		t.Fatal(err)
	}
	if duo.OverlapStall == 0 {
		t.Fatal("concurrent stalls reported no overlap")
	}
	if duo.OverlapStall > duo.MemStall/2 {
		t.Fatalf("OverlapStall %v exceeds half of MemStall %v", duo.OverlapStall, duo.MemStall)
	}
	// With full pipelining the two cores stall in near-lockstep: the
	// overlapped share must be close to one core's stall time.
	if duo.OverlapStall < duo.MemStall/3 {
		t.Fatalf("OverlapStall %v too small for lockstep stalls (MemStall %v)", duo.OverlapStall, duo.MemStall)
	}
}

// TestRunnerOverlapStallDisjoint: stalls disjoint in simulated time
// must report zero overlap even when processing order diverges from
// start-time order (a large compute phase advances one core's clock
// before its stall is attributed).
func TestRunnerOverlapStallDisjoint(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TLB.Entries = 0 // no TLB noise; stall windows stay exact
	st, err := NewRunner(cfg, &pipelinedMem{lat: 10000}).Run([]Stream{
		// Core 0: ~155us of compute, then a 10us stall — processed
		// first (tie-break at t=0) even though its stall starts last.
		&sliceStream{steps: []Step{{Compute: 310000, Acc: []mem.Access{{Addr: 0, Size: 8, Op: mem.Read}}}}},
		// Core 1: stalls [0, 10us] — entirely before core 0's stall.
		&sliceStream{steps: []Step{{Acc: []mem.Access{{Addr: 1 << 30, Size: 8, Op: mem.Read}}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.OverlapStall != 0 {
		t.Fatalf("disjoint stalls reported OverlapStall %v, want 0 (MemStall %v)",
			st.OverlapStall, st.MemStall)
	}
}

func TestRunnerMultiCoreInterleavesInOrder(t *testing.T) {
	// A memory system that asserts nondecreasing arrival times.
	m := &orderCheckMem{}
	r := NewRunner(DefaultConfig(), m)
	mk := func(base uint64) Stream {
		var steps []Step
		for i := 0; i < 50; i++ {
			steps = append(steps, Step{
				Compute: int64(i % 7),
				Acc:     []mem.Access{{Addr: base + uint64(i)*4096, Size: 8, Op: mem.Read}},
			})
		}
		return &sliceStream{steps: steps}
	}
	_, err := r.Run([]Stream{mk(0), mk(1 << 30), mk(2 << 30), mk(3 << 30)})
	if err != nil {
		t.Fatal(err)
	}
	if m.violations != 0 {
		t.Fatalf("%d out-of-order arrivals", m.violations)
	}
	if m.n == 0 {
		t.Fatal("no traffic reached memory")
	}
}

type orderCheckMem struct {
	last       sim.Time
	violations int
	n          int
}

func (o *orderCheckMem) Access(t sim.Time, a mem.Access) (MemResult, error) {
	o.n++
	if t < o.last {
		o.violations++
	}
	o.last = t
	return MemResult{Done: t + 50, Mem: 50}, nil
}

func TestIPCAndMIPS(t *testing.T) {
	st := Stats{Instructions: 2_000_000, Elapsed: sim.Time(1_000_000)} // 2 instr/ns over 1ms
	cfg := DefaultConfig()
	// 4 cores at 2GHz = 8 cycles/ns; 2 instr/ns => IPC 0.25.
	if got := st.IPC(cfg); got < 0.24 || got > 0.26 {
		t.Fatalf("IPC = %f", got)
	}
	if got := st.MIPS(); got < 1999 || got > 2001 {
		t.Fatalf("MIPS = %f", got)
	}
}

func TestRunnerEmptyStreams(t *testing.T) {
	r := NewRunner(DefaultConfig(), &flatMem{lat: 1, res: sim.NewResource()})
	st, err := r.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Instructions != 0 {
		t.Fatal("phantom instructions")
	}
}

func TestTLBMissPenalty(t *testing.T) {
	// Two runners differing only in TLB page size walk the same
	// sparse stream; the small-page one must pay more walk time.
	mk := func(pageBytes uint64) sim.Time {
		cfg := DefaultConfig()
		cfg.TLB = TLBConfig{Entries: 16, Ways: 2, PageBytes: pageBytes, MissLat: 100}
		m := &flatMem{lat: 10, res: sim.NewResource()}
		r := NewRunner(cfg, m)
		var steps []Step
		for i := 0; i < 400; i++ {
			steps = append(steps, Step{Acc: []mem.Access{{Addr: uint64(i*7919) % (1 << 24), Size: 8, Op: mem.Read}}})
		}
		st, err := r.Run([]Stream{&sliceStream{steps: steps}})
		if err != nil {
			t.Fatal(err)
		}
		if st.TLBMisses == 0 {
			t.Fatal("no TLB misses on a sparse stream")
		}
		return st.Elapsed
	}
	small := mk(4096)
	big := mk(1 << 20)
	if small <= big {
		t.Fatalf("4KB pages (%v) should be slower than 1MB pages (%v)", small, big)
	}
}

func TestTLBDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TLB.Entries = 0
	m := &flatMem{lat: 10, res: sim.NewResource()}
	r := NewRunner(cfg, m)
	st, err := r.Run([]Stream{&sliceStream{steps: []Step{
		{Acc: []mem.Access{{Addr: 0, Size: 8, Op: mem.Read}}},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if st.TLBMisses != 0 || st.TLBHits != 0 {
		t.Fatal("disabled TLB recorded activity")
	}
}
