package cpu

import (
	"hams/internal/mem"
	"hams/internal/sim"
)

// Step is one unit of workload progress on a core: some non-memory
// compute instructions followed by memory accesses.
type Step struct {
	Compute int64 // non-memory instructions
	Acc     []mem.Access
}

// Stream feeds one core. Next returns false when the thread finishes.
//
// A returned Step.Acc belongs to the stream: it stays valid only until
// that stream's next call to Next (a stream may build every step in one
// reused buffer), and the caller must not write to it. A caller that
// keeps steps copies Acc.
type Stream interface {
	Next() (Step, bool)
}

// MemSystem is the platform under test. Access returns the completion
// time and a latency decomposition for the breakdown figures.
type MemSystem interface {
	Access(t sim.Time, a mem.Access) (MemResult, error)
}

// MemResult decomposes one memory-system access.
type MemResult struct {
	Done sim.Time
	OS   sim.Time // software-stack time (mmap path)
	Mem  sim.Time // DRAM/NVDIMM array time
	DMA  sim.Time // interface transfer time
	SSD  sim.Time // device-internal time
	// Throttle is QoS pacing debt owed by the issuing core. The runner
	// applies it at the end of the current step — pacing the throttled
	// core's issue rate without backdating any in-flight access, so
	// other cores' arrival timestamps stay truthful.
	Throttle sim.Time
}

// TLBConfig sizes the per-core TLB. A small page size shrinks TLB
// coverage and raises walk traffic — the effect the paper cites for
// the 4 KB point of Fig. 20a.
type TLBConfig struct {
	Entries   int
	Ways      int
	PageBytes uint64
	MissLat   sim.Time // page-walk penalty (PTEs mostly cache-resident)
}

// DefaultTLB is a 1024-entry, 4-way TLB over 4 KiB pages.
func DefaultTLB() TLBConfig {
	return TLBConfig{Entries: 1024, Ways: 4, PageBytes: 4 * mem.KiB, MissLat: 40}
}

// Config sets the core parameters (Table II).
type Config struct {
	Cores  int
	FreqHz float64
	CPI    float64 // base CPI of non-memory instructions
	L1     CacheConfig
	L2     CacheConfig
	L1Lat  sim.Time
	L2Lat  sim.Time
	TLB    TLBConfig
}

// DefaultConfig is the quad-core ARM v8 @ 2 GHz of Table II.
func DefaultConfig() Config {
	return Config{
		Cores:  4,
		FreqHz: 2e9,
		CPI:    1.0,
		L1:     L1D64K(),
		L2:     L2_2M(),
		L1Lat:  2,  // ~4 cycles
		L2Lat:  10, // ~20 cycles
		TLB:    DefaultTLB(),
	}
}

// Stats aggregates a run.
type Stats struct {
	Instructions int64
	MemAccesses  int64
	L1Hits       int64
	L1Misses     int64
	L2Hits       int64
	L2Misses     int64
	TLBHits      int64
	TLBMisses    int64
	Elapsed      sim.Time
	ComputeTime  sim.Time
	MemStall     sim.Time
	// OverlapStall is the portion of MemStall spent while at least one
	// other core's memory stall was also outstanding — the
	// memory-level parallelism the platform exposed. Per-core stall
	// accounting (MemStall) charges overlapped waits twice; the
	// system-level cost of the memory system is approximately
	// MemStall - OverlapStall. A blocking miss pipeline serializes
	// conflicting misses and shrinks this; MSHRs grow it.
	OverlapStall sim.Time
	BusyTime     sim.Time // sum over cores of non-idle time

	OSTime  sim.Time
	MemTime sim.Time
	DMATime sim.Time
	SSDTime sim.Time
	// ThrottleStall is the total QoS pacing debt applied to cores
	// (zero unless a scenario throttles a class).
	ThrottleStall sim.Time
}

// IPC returns aggregate instructions per core-cycle.
func (s Stats) IPC(cfg Config) float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	cycles := float64(s.Elapsed) * cfg.FreqHz / 1e9 * float64(cfg.Cores)
	return float64(s.Instructions) / cycles
}

// MIPS returns millions of instructions per second of wall time.
func (s Stats) MIPS() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Instructions) / (float64(s.Elapsed) / 1e3) // instr/ns*1e3
}

type coreState struct {
	stream Stream
	l1     *Cache
	tlb    *Cache // a TLB is a small set-associative cache of pages
	now    sim.Time
	done   bool
	class  uint8 // QoS class tagged onto every access the core issues

	// Most recent memory-stall interval, for overlap attribution.
	stallStart, stallEnd sim.Time
}

// AccessObserver receives every memory access a core issues, with the
// issuing core's index (stream order), the access, and its issue and
// completion times. Observers are passive: they see the same values
// the runner accounts with and must not mutate shared state the
// simulation reads — the replay scenario engine uses one to build
// per-tenant latency histograms.
type AccessObserver func(core int, a mem.Access, issue, done sim.Time)

// Runner drives N cores against one memory system.
type Runner struct {
	cfg     Config
	mem     MemSystem
	l2      *Cache
	obs     AccessObserver
	classes []uint8
	start   sim.Time
}

// NewRunner builds a runner.
func NewRunner(cfg Config, m MemSystem) *Runner {
	return &Runner{cfg: cfg, mem: m, l2: NewCache(cfg.L2)}
}

// Observe registers an access observer; nil disables observation.
// Observation never changes simulated results.
func (r *Runner) Observe(fn AccessObserver) { r.obs = fn }

// SetStart sets the simulated instant cores begin issuing at (default
// 0). A measured phase resuming after a warm-up — live or from a
// restored checkpoint — starts its cores at the platform's quiesced
// clock so arrival timestamps continue the same timeline; Elapsed and
// BusyTime count from this origin, covering only the measured phase.
func (r *Runner) SetStart(t sim.Time) { r.start = t }

// SetClasses assigns each core (by stream index) the QoS class tagged
// onto every memory-system access it issues — including the L1/L2
// victim writebacks its traffic triggers, which mirrors hardware MBM
// attributing a writeback to the evicting core's RMID. Cores beyond
// the slice (and a nil slice) use the default class 0, so replaying
// without a class map is unchanged.
func (r *Runner) SetClasses(classes []uint8) { r.classes = classes }

// Run executes the streams (one per core; extra streams are ignored,
// missing ones leave cores idle) until all are exhausted. Cores are
// advanced in global time order so the shared memory system always
// sees nondecreasing arrival times.
func (r *Runner) Run(streams []Stream) (Stats, error) {
	var st Stats
	cores := make([]*coreState, 0, r.cfg.Cores)
	for i := 0; i < r.cfg.Cores && i < len(streams); i++ {
		cs := &coreState{stream: streams[i], l1: NewCache(r.cfg.L1), now: r.start}
		if i < len(r.classes) {
			cs.class = r.classes[i]
		}
		if r.cfg.TLB.Entries > 0 {
			cs.tlb = NewCache(CacheConfig{
				SizeBytes: uint64(r.cfg.TLB.Entries) * r.cfg.TLB.PageBytes,
				Ways:      r.cfg.TLB.Ways,
				LineBytes: r.cfg.TLB.PageBytes,
			})
		}
		cores = append(cores, cs)
	}
	if len(cores) == 0 {
		return st, nil
	}
	nsPerInstr := r.cfg.CPI / r.cfg.FreqHz * 1e9

	// scratch holds other cores' stall intervals clipped to the one
	// being attributed (overlapStall); hoisted out of the loop.
	scratch := make([][2]sim.Time, 0, len(cores))
	active := len(cores)
	for active > 0 {
		// Pick the core with the smallest local time (ties break to the
		// lowest index, keeping the schedule deterministic).
		ci := -1
		for i, cs := range cores {
			if cs.done {
				continue
			}
			if ci < 0 || cs.now < cores[ci].now {
				ci = i
			}
		}
		c := cores[ci]
		step, ok := c.stream.Next()
		if !ok {
			c.done = true
			active--
			continue
		}
		// Compute phase.
		if step.Compute > 0 {
			d := sim.Time(float64(step.Compute) * nsPerInstr)
			c.now += d
			st.ComputeTime += d
			st.Instructions += step.Compute
		}
		// Memory phase: one load/store instruction per cache line
		// touched (an 8 B load and a 64 B line are both one
		// instruction; a 4 KiB copy is 64 of them).
		var stepThrottle sim.Time
		for _, a := range step.Acc {
			lines := int64(mem.AlignUp(a.Addr+uint64(a.Size), r.cfg.L1.LineBytes)-mem.AlignDown(a.Addr, r.cfg.L1.LineBytes)) / int64(r.cfg.L1.LineBytes)
			if lines < 1 {
				lines = 1
			}
			st.Instructions += lines
			st.MemAccesses++
			done, mr, err := r.serveAccess(c, a, &st)
			if err != nil {
				return st, err
			}
			if r.obs != nil {
				r.obs(ci, a, c.now, done)
			}
			stall := done - c.now
			if stall > 0 {
				st.MemStall += stall
				st.OverlapStall += overlapStall(cores, ci, c.now, done, &scratch)
				c.stallStart, c.stallEnd = c.now, done
			}
			c.now = done
			st.OSTime += mr.OS
			st.MemTime += mr.Mem
			st.DMATime += mr.DMA
			st.SSDTime += mr.SSD
			stepThrottle += mr.Throttle
		}
		// QoS pacing debt lands at the step boundary: the throttled
		// core idles here (its next step issues later), while every
		// access it already issued keeps its physical timestamps.
		if stepThrottle > 0 {
			c.now += stepThrottle
			st.MemStall += stepThrottle
			st.ThrottleStall += stepThrottle
		}
	}
	for _, cs := range cores {
		if cs.now > st.Elapsed {
			st.Elapsed = cs.now
		}
		st.BusyTime += cs.now - r.start
	}
	st.Elapsed -= r.start
	st.L2Hits = r.l2.Hits()
	st.L2Misses = r.l2.Misses()
	for _, cs := range cores {
		st.L1Hits += cs.l1.Hits()
		st.L1Misses += cs.l1.Misses()
	}
	return st, nil
}

// overlapStall measures how much of core ci's stall [s, e) intersects
// the union of the other cores' most recent stall intervals — the
// cross-core memory-level parallelism the platform exposed. Stalls
// are attributed as they are processed, which is not strictly
// start-time order (a step's compute phase advances the core's clock
// first), so each core keeps its latest interval and only genuine
// intersections count: disjoint stalls never register as overlap. A
// stall spanning several already-processed intervals of one other
// core counts only the latest — a conservative undercount; overlap
// with intervals processed later is attributed when those are.
func overlapStall(cores []*coreState, ci int, s, e sim.Time, scratch *[][2]sim.Time) sim.Time {
	ivs := (*scratch)[:0]
	for j, o := range cores {
		if j == ci || o.stallEnd <= s || o.stallStart >= e {
			continue
		}
		lo, hi := o.stallStart, o.stallEnd
		if lo < s {
			lo = s
		}
		if hi > e {
			hi = e
		}
		ivs = append(ivs, [2]sim.Time{lo, hi})
	}
	*scratch = ivs
	if len(ivs) == 0 {
		return 0
	}
	// Measure the union of the clipped intervals (a handful of cores:
	// insertion sort by start, then sweep).
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0 && ivs[j][0] < ivs[j-1][0]; j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	var total sim.Time
	curLo, curHi := ivs[0][0], ivs[0][1]
	for _, iv := range ivs[1:] {
		if iv[0] > curHi {
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
			continue
		}
		if iv[1] > curHi {
			curHi = iv[1]
		}
	}
	return total + curHi - curLo
}

// serveAccess walks one access through L1/L2 and, on an L2 miss,
// through the memory system (including dirty-victim write-backs).
func (r *Runner) serveAccess(c *coreState, a mem.Access, st *Stats) (sim.Time, MemResult, error) {
	now := c.now
	line := c.l1.LineBytes()
	start := mem.AlignDown(a.Addr, line)
	end := mem.AlignUp(a.Addr+uint64(a.Size), line)
	var agg MemResult
	// Address translation: a TLB miss pays the page-walk penalty once
	// per page touched by the access.
	if c.tlb != nil {
		pstart := mem.AlignDown(a.Addr, r.cfg.TLB.PageBytes)
		pend := mem.AlignUp(a.Addr+uint64(a.Size), r.cfg.TLB.PageBytes)
		for pa := pstart; pa < pend; pa += r.cfg.TLB.PageBytes {
			if hit, _, _ := c.tlb.Lookup(pa, false); !hit {
				now += r.cfg.TLB.MissLat
				st.TLBMisses++
			} else {
				st.TLBHits++
			}
		}
	}
	for la := start; la < end; la += line {
		write := a.Op == mem.Write
		l1hit, v1, d1 := c.l1.Lookup(la, write)
		now += r.cfg.L1Lat
		if l1hit {
			continue
		}
		if d1 {
			// Dirty L1 victim drains into the (mostly inclusive) L2.
			if h2, v2, dd2 := r.l2.Lookup(v1, true); !h2 && dd2 {
				wb, err := r.mem.Access(now, mem.Access{Addr: v2, Size: uint32(line), Op: mem.Write, Class: c.class})
				if err != nil {
					return now, agg, err
				}
				agg.Throttle += wb.Throttle
			}
		}
		l2hit, v2, d2 := r.l2.Lookup(la, write)
		now += r.cfg.L2Lat
		if l2hit {
			continue
		}
		if d2 {
			// L2 dirty victim writes back to the memory system. The
			// write-back buffer hides it from the core's critical path
			// but it still occupies the memory system — and any MBA
			// debt it accrues still paces the evicting core.
			wb, err := r.mem.Access(now, mem.Access{Addr: v2, Size: uint32(line), Op: mem.Write, Class: c.class})
			if err != nil {
				return now, agg, err
			}
			agg.Throttle += wb.Throttle
		}
		// L2 miss: fetch the line from the memory system.
		mr, err := r.mem.Access(now, mem.Access{Addr: la, Size: uint32(line), Op: mem.Read, Class: c.class})
		if err != nil {
			return now, agg, err
		}
		agg.OS += mr.OS
		agg.Mem += mr.Mem
		agg.DMA += mr.DMA
		agg.SSD += mr.SSD
		agg.Throttle += mr.Throttle
		now = mr.Done
	}
	return now, agg, nil
}
