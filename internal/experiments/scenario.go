package experiments

import (
	"bytes"
	"context"
	"fmt"

	"hams/internal/platform"
	"hams/internal/replay"
	"hams/internal/report"
	"hams/internal/runner"
	"hams/internal/stats"
	"hams/internal/trace"
)

// This file hosts the two trace/scenario targets:
//
//   - `replay`: for each (platform, workload) pair, run the workload
//     live, push the identical streams through the v2 trace codec
//     (record → encode → decode), replay the trace on a fresh
//     platform, and REQUIRE the replayed simulated stats to match the
//     live run bit-for-bit. The determinism guarantee of the replay
//     subsystem is thus enforced on every CI bench run, not just in
//     unit tests.
//
//   - `mixed`: multi-tenant interleaved scenarios — N tenants
//     (synthetic workloads and/or traces) co-located on one platform,
//     with per-tenant p50/p95/p99 access-latency breakdowns showing
//     the interference the shared MoS cache and archive impose.

// replayPairs is the (platform, workload) matrix of the replay target:
// one workload per generator family plus the mmap software baseline,
// so the codec and the determinism check cover every stream shape.
var replayPairs = []struct{ platform, workload string }{
	{"hams-LE", "seqRd"},
	{"hams-LE", "rndRd"},
	{"hams-LE", "rndIns"},
	{"hams-LE", "BFS"},
	{"mmap", "rndRd"},
}

// replayOut is one replay cell's output (the live run is verified
// inside the cell and dropped — only the replayed result renders).
type replayOut struct {
	platform, workload string
	steps              int64
	rep                replay.Result
	cell               report.Cell
}

func (r replayOut) reportCell() report.Cell { return r.cell }

// Replay runs the record→replay determinism matrix as engine cells.
func Replay(o Options) ([]*stats.Table, error) {
	jobs := make([]cellJob, len(replayPairs))
	for i, p := range replayPairs {
		pair := p
		jobs[i] = cellJob{
			key:     pair.workload + "@" + pair.platform,
			seedKey: pair.workload,
			fn: func(ctx context.Context, seed int64) (any, error) {
				return replayCell(o, pair.platform, pair.workload, seed)
			},
		}
	}
	vals, err := runCellJobs(o, "replay", jobs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Replay: record→replay determinism (trace v2 codec)",
		"workload", "platform", "steps", "units/s", "p50", "p95", "p99", "live≡replay")
	for _, v := range vals {
		r, ok := v.(replayOut)
		if !ok {
			return nil, fmt.Errorf("experiments: replay cell returned %T", v)
		}
		ten := r.rep.Tenants[0]
		t.AddRow(r.workload, r.platform, fmt.Sprint(r.steps),
			fmt.Sprintf("%.0f", r.rep.UnitsPerSec()),
			fmt.Sprintf("%dns", ten.P50), fmt.Sprintf("%dns", ten.P95), fmt.Sprintf("%dns", ten.P99),
			"bit-identical")
	}
	return []*stats.Table{t}, nil
}

// replayCell runs one workload live, round-trips its streams through
// the trace container, replays, and verifies bit-for-bit equality.
func replayCell(o Options, platName, wlName string, seed int64) (replayOut, error) {
	co := o
	co.Seed = seed
	popt := o.applyMSHRs(platform.Options{})
	live, err := Run(platName, wlName, co, popt, nil)
	if err != nil {
		return replayOut{}, err
	}
	var buf bytes.Buffer
	steps, err := replay.RecordWorkload(&buf, wlName, co.wl(), replay.AllThreads)
	if err != nil {
		return replayOut{}, fmt.Errorf("recording %s: %w", wlName, err)
	}
	f, err := trace.Decode(&buf)
	if err != nil {
		return replayOut{}, fmt.Errorf("decoding %s trace: %w", wlName, err)
	}
	rep, err := replay.Run(replay.Scenario{
		Name:     wlName,
		Platform: platName,
		PlatOpts: popt,
		Tenants:  []replay.Tenant{{Name: wlName, Trace: f}},
	}, replay.Options{})
	if err != nil {
		return replayOut{}, err
	}
	if rep.CPU != live.CPU {
		return replayOut{}, fmt.Errorf("replay determinism violated on %s/%s: live %+v vs replayed %+v",
			platName, wlName, live.CPU, rep.CPU)
	}
	if rep.Units != live.Units {
		return replayOut{}, fmt.Errorf("replay determinism violated on %s/%s: live units %d vs replayed %d",
			platName, wlName, live.Units, rep.Units)
	}
	if rep.Energy.Total() != live.Energy.Total() {
		return replayOut{}, fmt.Errorf("replay determinism violated on %s/%s: live energy %g vs replayed %g",
			platName, wlName, live.Energy.Total(), rep.Energy.Total())
	}
	ten := rep.Tenants[0]
	cell := scenarioCell(rep, "", map[string]float64{
		"p50_ns": float64(ten.P50),
		"p95_ns": float64(ten.P95),
		"p99_ns": float64(ten.P99),
	})
	cell.Workload = wlName
	return replayOut{platform: platName, workload: wlName, steps: steps, rep: rep, cell: cell}, nil
}

// scenarioCell is the artifact record of one replay.Run result under
// the given scenario label.
func scenarioCell(rep replay.Result, scenario string, extra map[string]float64) report.Cell {
	return report.Cell{
		Platform:    rep.Platform,
		Scenario:    scenario,
		SimNS:       int64(rep.CPU.Elapsed),
		Units:       rep.Units,
		UnitsPerSec: rep.UnitsPerSec(),
		EnergyJ:     rep.Energy.Total(),
		Extra:       extra,
	}
}

// DefaultScenarios are the built-in multi-tenant mixes of the `mixed`
// target. Co-located tenants share the platform's entire memory
// system, so per-tenant p95/p99 exposes the interference a noisy
// neighbor imposes through the MoS cache and archive bandwidth.
func DefaultScenarios() []replay.Scenario {
	return []replay.Scenario{
		{Name: "rd+wr", Platform: "hams-LE", Tenants: []replay.Tenant{
			{Name: "reader", Workload: "rndRd"},
			{Name: "writer", Workload: "seqWr"},
		}},
		{Name: "db+graph", Platform: "hams-LE", Tenants: []replay.Tenant{
			{Name: "oltp", Workload: "rndIns"},
			{Name: "graph", Workload: "BFS"},
		}},
		{Name: "tri", Platform: "hams-LE", Tenants: []replay.Tenant{
			{Name: "reader", Workload: "rndRd"},
			{Name: "oltp", Workload: "update"},
			{Name: "kmeans", Workload: "KMN"},
		}},
		{Name: "rd+wr", Platform: "mmap", Tenants: []replay.Tenant{
			{Name: "reader", Workload: "rndRd"},
			{Name: "writer", Workload: "seqWr"},
		}},
	}
}

// mixedOut is one scenario cell's output.
type mixedOut struct {
	rep  replay.Result
	cell report.Cell
}

func (m mixedOut) reportCell() report.Cell { return m.cell }

// Mixed runs the multi-tenant scenarios as engine cells.
func Mixed(o Options) ([]*stats.Table, error) {
	return RunScenarios(o, DefaultScenarios())
}

// RunScenarios executes arbitrary scenarios through the engine and
// renders per-tenant latency breakdowns. Cell keys are
// "<scenario>@<platform>"; seeds derive from the scenario name alone,
// so the same mix stays stream-paired across platforms.
func RunScenarios(o Options, scs []replay.Scenario) ([]*stats.Table, error) {
	jobs := make([]cellJob, len(scs))
	for i, sc := range scs {
		sc := sc
		jobs[i] = cellJob{
			key:     sc.Name + "@" + sc.Platform,
			seedKey: sc.Name,
			fn: func(ctx context.Context, seed int64) (any, error) {
				return mixedCell(o, sc, seed)
			},
		}
	}
	vals, err := runCellJobs(o, "mixed", jobs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Mixed: multi-tenant scenarios (per-tenant latency breakdown)",
		"scenario", "platform", "tenant", "threads", "units", "p50", "p95", "p99", "units/s")
	for _, v := range vals {
		m, ok := v.(mixedOut)
		if !ok {
			return nil, fmt.Errorf("experiments: mixed cell returned %T", v)
		}
		threads := 0
		for _, ten := range m.rep.Tenants {
			threads += ten.Threads
			t.AddRow(m.rep.Scenario, m.rep.Platform, ten.Name, fmt.Sprint(ten.Threads),
				fmt.Sprint(ten.Units),
				fmt.Sprintf("%dns", ten.P50), fmt.Sprintf("%dns", ten.P95), fmt.Sprintf("%dns", ten.P99),
				"")
		}
		t.AddRow(m.rep.Scenario, m.rep.Platform, "(all)", fmt.Sprint(threads),
			fmt.Sprint(m.rep.Units), "", "", "",
			fmt.Sprintf("%.0f", m.rep.UnitsPerSec()))
	}
	return []*stats.Table{t}, nil
}

// mixedCell runs one scenario with per-tenant seeds derived from the
// cell seed and each tenant's name (unique within a scenario), so
// reordering or inserting tenants never reseeds the others.
func mixedCell(o Options, sc replay.Scenario, seed int64) (mixedOut, error) {
	tenants := make([]replay.Tenant, len(sc.Tenants))
	copy(tenants, sc.Tenants)
	for i := range tenants {
		if tenants[i].Trace == nil && tenants[i].Seed == 0 {
			tenants[i].Seed = runner.DeriveSeed(seed, tenants[i].Name)
		}
	}
	sc.Tenants = tenants
	sc.PlatOpts = o.applyMSHRs(sc.PlatOpts)
	rep, err := replay.Run(sc, replay.Options{Scale: o.Scale, Seed: seed})
	if err != nil {
		return mixedOut{}, err
	}
	extra := make(map[string]float64, 4*len(rep.Tenants))
	for _, ten := range rep.Tenants {
		extra["p50_ns:"+ten.Name] = float64(ten.P50)
		extra["p95_ns:"+ten.Name] = float64(ten.P95)
		extra["p99_ns:"+ten.Name] = float64(ten.P99)
		extra["units:"+ten.Name] = float64(ten.Units)
	}
	return mixedOut{rep: rep, cell: scenarioCell(rep, rep.Scenario, extra)}, nil
}
