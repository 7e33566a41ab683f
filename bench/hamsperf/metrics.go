package main

import (
	"math"
	"sort"
	"time"
)

// metricDef is one reported name and its unit. BENCHMARK.json at the
// repository root declares the same names and units; main_test.go
// keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the simulator sees, reported from
// untraced reps (-trace 0), for the metrics that repeat within their
// bound from run to run and seed to seed. Every workload reports every
// name, and none of them can be zero.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// profLayers are the buckets CPU-profile samples are attributed to:
// the repository's packages (core/tagstore as core-tagstore), the
// benchmark's own code (bench), hams packages not listed here
// (other), and stacks with neither (runtime).
var profLayers = []string{
	"cpu", "platform", "core", "core-tagstore", "nvme", "bus", "pcie", "ssd", "ftl", "flash",
	"dram", "mem", "sim", "qos", "stats", "workload", "replay", "checkpoint", "osmodel",
	"runtime", "bench", "other",
}

// perLayer is reported from the traced rep, the profiled rep and the
// process counters (-trace 1). A layer a workload bypasses reads 0.
// Units starting with "sim_" are simulated time, deterministic for a
// seed; the "1/sim_s" rate is per simulated second.
var perLayer = append([]metricDef{
	// End-to-end figures that do not repeat within a tenth: host speed
	// drifts from run to run on a shared machine, and the simulated
	// figures change with the seed. The host ones come from the
	// untraced reps.
	{"host_accesses_per_s", "1/s"},
	{"cell_host_ms_p50", "ms"},
	{"sim_units_per_s", "1/sim_s"},
	{"sim_p99_ns", "sim_ns"},
	// The traced rep: its host time, and the share of it each public
	// call took. Spans nest: replay.restored_run holds platform.new,
	// platform.restore, workload.next, platform.access and cpu.self.
	{"trace.wall_s", "s"},
	{"trace.overhead", "x"},
	{"platform.new.share", "share"},
	{"platform.warm.share", "share"},
	{"platform.restore.share", "share"},
	{"workload.build.share", "share"},
	{"workload.next.share", "share"},
	{"platform.access.share", "share"},
	{"platform.access_calls", "count"},
	{"cpu.self.share", "share"},
	{"core.hit_host_ns_mean", "ns"},
	{"core.miss_host_ns_p50", "ns"},
	{"core.miss_host_ns_p99", "ns"},
	{"core.recover.share", "share"},
	{"replay.warmup.share", "share"},
	{"replay.restored_run.share", "share"},
	{"checkpoint.encode.share", "share"},
	{"checkpoint.decode.share", "share"},
	// Process counters around the untraced reps.
	{"host.alloc_bytes_per_access", "B"},
	{"host.allocs_per_access", "count"},
	{"host.gc_cpu_share", "share"},
	// Simulated counters of the platforms the traced rep built.
	{"cpu.l1_hit_rate", "share"},
	{"cpu.l2_hit_rate", "share"},
	{"cpu.tlb_hit_rate", "share"},
	{"cpu.ipc", "instr/cycle"},
	{"cpu.mem_stall_share", "share"},
	{"cpu.overlap_share", "share"},
	{"cpu.throttle_stall_share", "share"},
	{"core.hit_rate", "share"},
	{"core.evictions", "count"},
	{"core.fills", "count"},
	{"core.wait_q", "count"},
	{"core.coalesced", "count"},
	{"core.mshr_stalls", "count"},
	{"core.nvdimm_time_share", "share"},
	{"core.dma_time_share", "share"},
	{"core.ssd_time_share", "share"},
	{"core.wait_time_share", "share"},
	{"nvme.peak_qd", "count"},
	{"bus.lock_waits", "count"},
	{"bus.locked_time_share", "share"},
	{"dram.row_hit_rate", "share"},
	{"dram.bus_busy_share", "share"},
	{"ssd.buffer_hit_rate", "share"},
	{"ftl.gc_runs", "count"},
	{"ftl.write_amp", "x"},
	{"flash.programs", "count"},
	{"flash.die_busy_s", "sim_s"},
	{"qos.latency.occupancy_pages", "count"},
	{"qos.stream.throttle_ns", "sim_ns"},
	{"qos.stream.fill_mbps", "MB/sim_s"},
	{"checkpoint.image_bytes", "B"},
}, profMetrics()...)

func profMetrics() []metricDef {
	out := make([]metricDef, len(profLayers))
	for i, l := range profLayers {
		out[i] = metricDef{"prof." + l + ".share", "share"}
	}
	return out
}

// catalog returns the names one pass reports.
func catalog(trace int) []metricDef {
	if trace == 1 {
		return perLayer
	}
	return endToEnd
}

// median returns the nearest-rank median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(0.5, len(s))-1]
}

// rank is the 1-based nearest rank of quantile q among n samples.
func rank(q float64, n int) int {
	r := int(math.Ceil(q * float64(n)))
	return min(max(r, 1), n)
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
