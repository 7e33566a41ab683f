package experiments

import (
	"fmt"

	"hams/internal/mem"
	"hams/internal/platform"
	"hams/internal/stats"
	"hams/internal/workload"
)

// This file hosts the `mlp` target: the memory-level-parallelism
// sweep over the non-blocking miss pipeline. Each cell runs a
// miss-heavy workload on hams-LE with a deliberately small NVDIMM (so
// the MoS cache thrashes) across MSHR depth 1/2/4/8 crossed with an
// NVMe queue-depth cap. Depth 1 is the paper's blocking pipeline —
// every cell at depth 1 must keep reproducing the baseline
// bit-for-bit; the deeper rows quantify what deferring writebacks
// behind demand fills and coalescing misses buys, and the peak
// queue-depth column shows the parallelism actually driven into the
// device.

// MLPPoint is one MSHR-depth × queue-depth configuration.
type MLPPoint struct {
	MSHRs      int
	QueueDepth int // 0 = unbounded
}

func (p MLPPoint) label() string {
	if p.QueueDepth == 0 {
		return fmt.Sprintf("mshr%d", max(p.MSHRs, 1))
	}
	return fmt.Sprintf("mshr%d-qd%d", max(p.MSHRs, 1), p.QueueDepth)
}

// DefaultMLPPoints spans the depth grid: the blocking pipeline,
// depth alone, and depth under a tight queue-depth cap (which shows
// when the NVMe queue, not the register file, is the limiter).
func DefaultMLPPoints() []MLPPoint {
	return []MLPPoint{
		{MSHRs: 1},
		{MSHRs: 2},
		{MSHRs: 4},
		{MSHRs: 8},
		{MSHRs: 4, QueueDepth: 2},
		{MSHRs: 8, QueueDepth: 4},
	}
}

// mlpNVDIMM shrinks the MoS cache (with a PRP pool sized to fit the
// smaller pinned region) so the workloads below evict constantly —
// the regime where the miss pipeline's structure shows.
const (
	mlpNVDIMM   = 32 * mem.MiB
	mlpPRPSlots = 32
	// mlpScale pins the sweep's instruction budget independently of
	// the CLI -scale: the cells must run long enough to fill the
	// cache and reach the eviction regime even at the CI gate's tiny
	// scale, or every depth row measures an empty cache warming up.
	mlpScale = 2e-6
)

// mlpWorkloads are write-heavy (dirty victims make the deferred
// writeback matter) plus a random-read control whose mostly-clean
// victims measure the pipeline's coalescing/hit-under-miss side
// alone. Sequential scans are omitted: they never wrap the shrunken
// cache within the pinned budget, so every row would measure warmup.
var mlpWorkloads = []string{"rndWr", "update", "rndRd"}

// MLPSweep runs the MSHR-depth × queue-depth grid and renders one
// table per workload: mean access latency, wait-queue pressure,
// coalescing/hit-under-miss activity and the peak NVMe queue depth.
func MLPSweep(o Options) ([]*stats.Table, error) {
	points := DefaultMLPPoints()
	// Miss-heavy traffic shape: 95% of the random traffic sprays a
	// 256 MiB dataset whose pages cannot stay resident in the
	// shrunken cache, so the controller lives in the miss/eviction
	// regime the pipeline structure governs (the default locality
	// model would keep every depth row measuring the same thing).
	wopt := workload.DefaultOptions()
	wopt.Scale = mlpScale
	wopt.HotFraction = 0.05
	wopt.HotBytes = 16 * mem.MiB
	wopt.DatasetBytes = 256 * mem.MiB
	var cells []matrixCell
	for _, wl := range mlpWorkloads {
		for i, p := range points {
			cells = append(cells, matrixCell{
				key:      fmt.Sprintf("%s/p%d-%s", wl, i, p.label()),
				platform: "hams-LE", workload: wl,
				popt: platform.Options{
					HAMSMSHRs:      p.MSHRs,
					HAMSQueueDepth: p.QueueDepth,
					HAMSNVDIMM:     mlpNVDIMM,
					HAMSPRPSlots:   mlpPRPSlots,
				},
				wopt:  &wopt,
				extra: mlpExtra,
			})
		}
	}
	res, err := runMatrix(o, "mlp", cells)
	if err != nil {
		return nil, err
	}
	byWL := map[string]*stats.Table{}
	var tabs []*stats.Table
	for i, r := range res {
		wl := mlpWorkloads[i/len(points)]
		tab, ok := byWL[wl]
		if !ok {
			tab = stats.NewTable(
				fmt.Sprintf("MLP: non-blocking miss pipeline on %s (hams-LE, %d MiB NVDIMM)", wl, mlpNVDIMM/mem.MiB),
				"pipeline", "mshrs", "qd cap", "hit rate", "avg access", "waitq", "mshr stalls",
				"coalesced", "hum", "peak qd", "units/s")
			byWL[wl] = tab
			tabs = append(tabs, tab)
		}
		p := points[i%len(points)]
		cs := r.MoS
		qdCap := "-"
		if p.QueueDepth > 0 {
			qdCap = fmt.Sprint(p.QueueDepth)
		}
		tab.AddRow(p.label(), fmt.Sprint(max(p.MSHRs, 1)), qdCap,
			fmt.Sprintf("%.4f", cs.HitRate()),
			fmt.Sprintf("%.0fns", avgAccessNanos(cs)),
			fmt.Sprint(cs.WaitQ), fmt.Sprint(cs.MSHRStalls),
			fmt.Sprint(cs.Coalesced), fmt.Sprint(cs.HitUnderMiss),
			fmt.Sprint(r.PeakQD),
			fmt.Sprintf("%.0f", r.UnitsPerSec()))
	}
	return tabs, nil
}

// mlpExtra records the sweep's pipeline metrics into the BENCH cell
// so the CI gate tracks them alongside throughput.
func mlpExtra(r RunResult) map[string]float64 {
	cs := r.MoS
	extra := map[string]float64{
		"peak_qd":        float64(r.PeakQD),
		"waitq":          float64(cs.WaitQ),
		"mshr_stalls":    float64(cs.MSHRStalls),
		"coalesced":      float64(cs.Coalesced),
		"hit_under_miss": float64(cs.HitUnderMiss),
		"overlap_ns":     float64(r.CPU.OverlapStall),
	}
	if cs.Accesses > 0 {
		extra["avg_access_ns"] = float64(cs.TotalTime) / float64(cs.Accesses)
	}
	return extra
}
