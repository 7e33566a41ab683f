// Package experiments regenerates every table and figure of the
// paper's evaluation (§III and §VI). Each FigN function runs the
// relevant workload × platform matrix and renders the same rows/series
// the paper plots; EXPERIMENTS.md records paper-vs-measured shapes.
package experiments

import (
	"context"
	"fmt"

	"hams/internal/checkpoint"
	"hams/internal/cpu"
	"hams/internal/energy"
	"hams/internal/platform"
	"hams/internal/report"
	"hams/internal/runner"
	"hams/internal/sim"
	"hams/internal/stats"
	"hams/internal/workload"
)

// Options tunes a harness invocation.
type Options struct {
	// Scale multiplies Table III instruction counts (default 3e-6).
	Scale float64
	// Seed fixes workload randomness. Targets that run through the
	// concurrent engine derive each cell's seed from this value and
	// the cell's workload (runner.DeriveSeed), so results are
	// identical for any worker count.
	Seed int64
	// Parallel is the engine worker count: 0 = GOMAXPROCS, 1 = serial.
	Parallel int
	// Shuffle, when nonzero, deterministically permutes cell dispatch
	// order (determinism testing; see runner.Engine.ShuffleSeed).
	Shuffle int64
	// Recorder, when set, collects one report.Cell per engine cell for
	// BENCH artifact serialization.
	Recorder *report.Recorder
	// Ctx stops dispatch of pending cells when cancelled (already
	// in-flight cells run to completion — the simulator core does not
	// poll the context); nil = Background.
	Ctx context.Context

	// Runner, when set, executes every engine cell batch instead of a
	// per-target Engine built from Parallel/Shuffle — how hamsd
	// multiplexes many concurrent jobs onto one shared runner.Pool.
	// Determinism is unaffected: results are a pure function of the
	// cells, not of which pool ran them.
	Runner runner.CellRunner
	// Progress, when set, is invoked once per completed engine cell
	// with the cell's artifact record — the mid-run hook behind hamsd
	// result streaming and `hamsbench -progress`. It fires in
	// completion order from worker goroutines (possibly concurrently)
	// and must not block for long; the returned tables and recorded
	// artifacts are identical with or without it.
	Progress func(report.Cell)

	// QoSMasks / QoSMBps override the `qos` target's isolated-policy
	// way masks and bandwidth throttles per class name (hamsbench
	// -qos-masks / -qos-mbps). nil keeps the built-in policy.
	QoSMasks map[string]uint64
	QoSMBps  map[string]float64

	// SLOTargetP99 overrides the rolling-p99 objective of the `qos`
	// target's feedback-controlled auto variant (hamsbench -slo-p99);
	// 0 keeps the built-in target.
	SLOTargetP99 sim.Time

	// Checkpoint, when set, pre-pays the sampled target's warm-up:
	// the fan-out cell restores its N cells from this image instead of
	// warming up live once (hamsbench -from-checkpoint). The image
	// must come from the sampled scenario at the same seed — produced
	// by SampledCheckpoint / hamsbench -checkpoint — or the cell fails
	// (a structural mismatch refuses the restore; a same-shape image
	// from another seed trips the live-twin bit-identity check). nil
	// keeps the self-contained behavior.
	Checkpoint *checkpoint.Image

	// MSHRs, when nonzero, overrides the per-bank MSHR depth of every
	// HAMS matrix cell that does not pin its own (hamsbench -mshrs):
	// a one-flag way to regenerate any figure under the non-blocking
	// miss pipeline. 0 keeps each target's own configuration — the
	// blocking pipeline unless the cell opts in (the mlp sweep).
	MSHRs int
}

func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// DefaultOptions returns harness defaults sized so the full figure set
// completes in minutes on a laptop.
func DefaultOptions() Options { return Options{Scale: 3e-6, Seed: 42} }

func (o Options) wl() workload.Options {
	w := workload.DefaultOptions()
	if o.Scale > 0 {
		w.Scale = o.Scale
	}
	w.Seed = o.Seed
	return w
}

// applyMSHRs threads the -mshrs override into a platform option set
// that has not pinned its own depth (the mlp sweep pins one per
// cell). Every HAMS-cell path — the run matrix, and the replay,
// mixed and qos scenario targets — routes its options through here.
func (o Options) applyMSHRs(p platform.Options) platform.Options {
	if o.MSHRs != 0 && p.HAMSMSHRs == 0 {
		p.HAMSMSHRs = o.MSHRs
	}
	return p
}

// RunResult captures one workload × platform run.
type RunResult struct {
	Platform string
	Workload string
	CPU      cpu.Stats
	Units    int64 // pages (micro/Rodinia) or SQL ops
	Energy   energy.Breakdown
	Plat     platform.Platform
}

// UnitsPerSec returns work items per second of simulated time.
func (r RunResult) UnitsPerSec() float64 {
	secs := r.CPU.Elapsed.Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(r.Units) / secs
}

// Run executes one workload on one platform.
func Run(platName, wlName string, o Options, popt platform.Options, wopt *workload.Options) (RunResult, error) {
	spec, err := workload.ByName(wlName)
	if err != nil {
		return RunResult{}, err
	}
	plat, err := platform.New(platName, popt)
	if err != nil {
		return RunResult{}, err
	}
	wo := o.wl()
	if wopt != nil {
		wo = *wopt
	}
	for _, hr := range spec.HotRegions(wo) {
		plat.Warm(hr.Base, hr.Size)
	}
	streams := spec.Streams(wo)
	ccfg := cpu.DefaultConfig()
	// The system page size sets the MMU translation granularity
	// (Fig. 20a varies it): HAMS maps MoS pages; everything else runs
	// on the 4 KiB default.
	if pg := platform.MappingPage(platName, popt); pg != 0 {
		ccfg.TLB.PageBytes = pg
	}
	runner := cpu.NewRunner(ccfg, plat)
	st, err := runner.Run(streams)
	if err != nil {
		return RunResult{}, fmt.Errorf("%s on %s: %w", wlName, platName, err)
	}
	var units int64
	for _, s := range streams {
		if p, ok := s.(workload.Progress); ok {
			units += p.Units()
		}
	}
	in := plat.EnergyInputs()
	in.Elapsed = st.Elapsed
	in.Cores = cpu.DefaultConfig().Cores
	in.CPUBusy = busyTime(st)
	eb := energy.Compute(energy.DefaultParams(), in)
	return RunResult{
		Platform: platName, Workload: wlName,
		CPU: st, Units: units, Energy: eb, Plat: plat,
	}, nil
}

// busyTime estimates the cores' active (non-stalled) time: compute
// plus cache-access time. Memory-system stalls count as idle — for
// mmap the process is context-switched out; for hardware paths the
// core clock-gates in the stall.
func busyTime(st cpu.Stats) sim.Time {
	cfg := cpu.DefaultConfig()
	cache := sim.Time(st.L1Hits+st.L1Misses)*cfg.L1Lat +
		sim.Time(st.L2Hits+st.L2Misses)*cfg.L2Lat
	return st.ComputeTime + cache
}

// workloadsOf filters Table III by suite kinds.
func workloadsOf(kinds ...workload.Kind) []workload.Spec {
	var out []workload.Spec
	for _, s := range workload.All() {
		for _, k := range kinds {
			if s.Kind == k {
				out = append(out, s)
			}
		}
	}
	return out
}

// Table1 renders the paper's feature-comparison table (static).
func Table1() *stats.Table {
	t := stats.NewTable("Table I: persistent-memory feature comparison",
		"type", "capacity", "OS intervention", "performance", "byte-addressable")
	t.AddRow("NVDIMM-N", "low", "no", "DRAM-like", "yes")
	t.AddRow("NVDIMM-F", "high", "yes", "slow", "no")
	t.AddRow("NVDIMM-P", "medium", "yes", "medium", "yes")
	t.AddRow("HAMS", "high", "no", "DRAM-like", "yes")
	return t
}

// Table2 renders the simulator configuration (Table II).
func Table2() *stats.Table {
	t := stats.NewTable("Table II: simulated system", "component", "configuration")
	t.AddRow("CPU", "quad-core, 2 GHz, base CPI 1.0")
	t.AddRow("cache", "64KB L1D per core / 2MB shared L2")
	t.AddRow("memory", "NVDIMM-N, DDR4-2133, 8 GB, 128 KB MoS pages")
	t.AddRow("storage", "ULL-Flash, 512 MB buffer, 800 GB-class")
	t.AddRow("flash", "Z-NAND: 3 us read, 100 us program")
	t.AddRow("interconnect", "PCIe 3.0 x4 (loose) / shared DDR4 (tight)")
	return t
}

// Table3 renders the workload characteristics (Table III).
func Table3() *stats.Table {
	t := stats.NewTable("Table III: workload characteristics",
		"workload", "suite", "threads", "instr (paper)", "load", "store", "dataset")
	for _, s := range workload.All() {
		t.AddRow(s.Name, s.Kind.String(), fmt.Sprint(s.Threads),
			fmt.Sprintf("%dG", s.Instructions/1e9),
			stats.F(s.LoadRatio), stats.F(s.StoreRatio),
			fmt.Sprintf("%dGB", s.DatasetBytes>>30))
	}
	return t
}
