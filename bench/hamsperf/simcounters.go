package main

import (
	"hams/internal/core"
	"hams/internal/cpu"
	"hams/internal/platform"
	"hams/internal/sim"
)

// simCounters sums the public Stats of every platform a traced rep
// built. All of it is simulated and so repeats exactly for a seed.
type simCounters struct {
	cpu        cpu.Stats
	coreCycles float64
	// horizon sums each platform's simulated clock at the end of its
	// run. A restored platform's device counters include the warm-up
	// its image carries, so time shares divide by the whole timeline,
	// not by the measured phase alone.
	horizon    sim.Time
	core       core.Stats
	peakQD     int
	lockWaits  int64
	lockedTime sim.Time
	rowHits    int64
	rowMisses  int64
	dramBusy   sim.Time
	bufHits    int64
	bufMisses  int64
	gcRuns     int64
	hostWrites int64
	gcWrites   int64
	programs   int64
	dieBusy    sim.Time
}

// addPlatform folds one finished run on p, which started at t0, into
// the sums.
func (s *simCounters) addPlatform(p platform.Platform, st cpu.Stats, cfg cpu.Config, t0 sim.Time) {
	c := &s.cpu
	c.Instructions += st.Instructions
	c.MemAccesses += st.MemAccesses
	c.L1Hits += st.L1Hits
	c.L1Misses += st.L1Misses
	c.L2Hits += st.L2Hits
	c.L2Misses += st.L2Misses
	c.TLBHits += st.TLBHits
	c.TLBMisses += st.TLBMisses
	c.Elapsed += st.Elapsed
	c.MemStall += st.MemStall
	c.OverlapStall += st.OverlapStall
	c.BusyTime += st.BusyTime
	c.ThrottleStall += st.ThrottleStall
	s.coreCycles += float64(st.Elapsed) * cfg.FreqHz / 1e9 * float64(cfg.Cores)
	s.horizon += t0 + st.Elapsed

	in := p.EnergyInputs()
	s.rowHits += in.DRAM.RowHits
	s.rowMisses += in.DRAM.RowMisses
	s.dramBusy += in.DRAM.BusBusy
	s.programs += in.Flash.Programs
	s.dieBusy += in.Flash.DieBusy

	ctl := controllerOf(p)
	if ctl == nil {
		return
	}
	s.addCore(ctl.Stats())
	s.peakQD = max(s.peakQD, ctl.PeakQueueDepth())
	bs := ctl.BusStats()
	s.lockWaits += bs.LockWaits
	s.lockedTime += bs.LockedTime
	ds := ctl.Device().Stats()
	s.bufHits += ds.BufferHits
	s.bufMisses += ds.BufferMisses
	fs := ctl.Device().FTLStats()
	s.gcRuns += fs.GCRuns
	s.hostWrites += fs.HostWrites
	s.gcWrites += fs.GCWrites
}

// addCore folds one controller's counters into the sums.
func (s *simCounters) addCore(cs core.Stats) {
	k := &s.core
	k.Accesses += cs.Accesses
	k.Hits += cs.Hits
	k.Evictions += cs.Evictions
	k.Fills += cs.Fills
	k.WaitQ += cs.WaitQ
	k.Coalesced += cs.Coalesced
	k.MSHRStalls += cs.MSHRStalls
	k.NVDIMMTime += cs.NVDIMMTime
	k.DMATime += cs.DMATime
	k.SSDTime += cs.SSDTime
	k.WaitTime += cs.WaitTime
}

// fill writes the derived counters into out.
func (s *simCounters) fill(out map[string]float64) {
	c, k := s.cpu, s.core
	f := func(v int64) float64 { return float64(v) }
	out["cpu.l1_hit_rate"] = ratio(f(c.L1Hits), f(c.L1Hits+c.L1Misses))
	out["cpu.l2_hit_rate"] = ratio(f(c.L2Hits), f(c.L2Hits+c.L2Misses))
	out["cpu.tlb_hit_rate"] = ratio(f(c.TLBHits), f(c.TLBHits+c.TLBMisses))
	out["cpu.ipc"] = ratio(f(c.Instructions), s.coreCycles)
	out["cpu.mem_stall_share"] = ratio(f(int64(c.MemStall)), f(int64(c.BusyTime)))
	out["cpu.overlap_share"] = ratio(f(int64(c.OverlapStall)), f(int64(c.MemStall)))
	out["cpu.throttle_stall_share"] = ratio(f(int64(c.ThrottleStall)), f(int64(c.MemStall)))
	out["core.hit_rate"] = ratio(f(k.Hits), f(k.Accesses))
	out["core.evictions"] = f(k.Evictions)
	out["core.fills"] = f(k.Fills)
	out["core.wait_q"] = f(k.WaitQ)
	out["core.coalesced"] = f(k.Coalesced)
	out["core.mshr_stalls"] = f(k.MSHRStalls)
	total := f(int64(k.NVDIMMTime + k.DMATime + k.SSDTime + k.WaitTime))
	out["core.nvdimm_time_share"] = ratio(f(int64(k.NVDIMMTime)), total)
	out["core.dma_time_share"] = ratio(f(int64(k.DMATime)), total)
	out["core.ssd_time_share"] = ratio(f(int64(k.SSDTime)), total)
	out["core.wait_time_share"] = ratio(f(int64(k.WaitTime)), total)
	out["nvme.peak_qd"] = float64(s.peakQD)
	out["bus.lock_waits"] = f(s.lockWaits)
	out["bus.locked_time_share"] = ratio(f(int64(s.lockedTime)), f(int64(s.horizon)))
	out["dram.row_hit_rate"] = ratio(f(s.rowHits), f(s.rowHits+s.rowMisses))
	out["dram.bus_busy_share"] = ratio(f(int64(s.dramBusy)), f(int64(s.horizon)))
	out["ssd.buffer_hit_rate"] = ratio(f(s.bufHits), f(s.bufHits+s.bufMisses))
	out["ftl.gc_runs"] = f(s.gcRuns)
	out["ftl.write_amp"] = ratio(f(s.hostWrites+s.gcWrites), f(s.hostWrites))
	out["flash.programs"] = f(s.programs)
	out["flash.die_busy_s"] = s.dieBusy.Seconds()
}
