package experiments

import (
	"fmt"

	"hams/internal/core"
	"hams/internal/core/tagstore"
	"hams/internal/platform"
	"hams/internal/stats"
)

// SweepPoint is one cache-geometry configuration of the
// associativity × shard sweep.
type SweepPoint struct {
	Ways   int
	Banks  int
	Policy tagstore.Policy
}

func (p SweepPoint) label() string {
	if p.Ways <= 1 {
		return fmt.Sprintf("direct ×%db", max(p.Banks, 1))
	}
	return fmt.Sprintf("%dw/%s ×%db", p.Ways, p.Policy, max(p.Banks, 1))
}

// DefaultSweepPoints spans the geometry grid the sweep evaluates: the
// paper's direct-mapped single bank, associativity alone, sharding
// alone, and both together (plus a policy comparison at 4-way).
func DefaultSweepPoints() []SweepPoint {
	return []SweepPoint{
		{Ways: 1, Banks: 1},
		{Ways: 2, Banks: 1, Policy: tagstore.LRU},
		{Ways: 4, Banks: 1, Policy: tagstore.LRU},
		{Ways: 1, Banks: 4},
		{Ways: 4, Banks: 4, Policy: tagstore.LRU},
		{Ways: 4, Banks: 4, Policy: tagstore.Clock},
		{Ways: 4, Banks: 4, Policy: tagstore.Random},
	}
}

// SweepResult is one workload × geometry run of the sweep.
type SweepResult struct {
	Workload string
	Point    SweepPoint
	Run      RunResult
}

// HitRate returns the MoS tag-array hit rate of the run.
func (r SweepResult) HitRate() float64 { return r.Run.MoS.HitRate() }

// AvgAccessNanos returns the mean controller access latency in ns.
func (r SweepResult) AvgAccessNanos() float64 { return avgAccessNanos(r.Run.MoS) }

// avgAccessNanos is the mean controller access latency in ns.
func avgAccessNanos(cs core.Stats) float64 {
	if cs.Accesses == 0 {
		return 0
	}
	return float64(cs.TotalTime) / float64(cs.Accesses)
}

// AssocShardSweep runs the associativity × shard grid on the random
// microbenchmarks and a SQLite workload against hams-LE, reporting
// hit rate, mean access latency and throughput per geometry. The
// direct-mapped single-bank row is the seed configuration; the other
// rows quantify what the tagstore/bank generalization buys.
func AssocShardSweep(o Options) ([]*stats.Table, error) {
	results, err := RunSweep(o, []string{"rndRd", "rndWr", "rndIns"}, DefaultSweepPoints())
	if err != nil {
		return nil, err
	}
	byWL := map[string]*stats.Table{}
	var tabs []*stats.Table
	for _, r := range results {
		tab, ok := byWL[r.Workload]
		if !ok {
			tab = stats.NewTable(
				fmt.Sprintf("Sweep: MoS cache geometry on %s (hams-LE)", r.Workload),
				"geometry", "ways", "banks", "policy", "hit rate", "avg access", "waitq", "evictions", "units/s")
			byWL[r.Workload] = tab
			tabs = append(tabs, tab)
		}
		tab.AddRow(r.Point.label(),
			fmt.Sprint(max(r.Point.Ways, 1)), fmt.Sprint(max(r.Point.Banks, 1)),
			r.Point.Policy.String(),
			fmt.Sprintf("%.4f", r.HitRate()),
			fmt.Sprintf("%.0fns", r.AvgAccessNanos()),
			fmt.Sprint(r.Run.MoS.WaitQ),
			fmt.Sprint(r.Run.MoS.Evictions),
			fmt.Sprintf("%.0f", r.Run.UnitsPerSec()))
	}
	return tabs, nil
}

// RunSweep executes every workload × geometry combination as
// independent engine cells. Keys carry the point index so arbitrary
// caller-supplied grids (even with repeated points) stay unique.
func RunSweep(o Options, workloads []string, points []SweepPoint) ([]SweepResult, error) {
	var cells []matrixCell
	for _, wl := range workloads {
		for i, p := range points {
			cells = append(cells, matrixCell{
				key:      fmt.Sprintf("%s/p%d-%s", wl, i, p.label()),
				platform: "hams-LE", workload: wl,
				popt: platform.Options{
					HAMSWays:   p.Ways,
					HAMSBanks:  p.Banks,
					HAMSPolicy: p.Policy,
				},
			})
		}
	}
	res, err := runMatrix(o, "sweep", cells)
	if err != nil {
		return nil, err
	}
	out := make([]SweepResult, 0, len(res))
	for i, r := range res {
		out = append(out, SweepResult{
			Workload: workloads[i/len(points)],
			Point:    points[i%len(points)],
			Run:      r,
		})
	}
	return out, nil
}
