package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"hams/internal/mem"
	"hams/internal/platform"
	"hams/internal/qos"
	"hams/internal/replay"
	"hams/internal/report"
	"hams/internal/runner"
	"hams/internal/sim"
	"hams/internal/stats"
)

// This file hosts the `qos` target: partitioned vs. unpartitioned
// multi-tenant co-location, static and feedback-controlled. One
// scenario — a streaming tenant next to a latency-sensitive service on
// a deliberately small MoS cache — is swept across five CLOS policies:
//
//	shared   free-for-all (the PR 3 `mixed` behavior, monitoring only)
//	cat      way partitioning: the service keeps 6 of 8 ways
//	mba      bandwidth throttling: the streamer capped at 100 MB/s
//	cat+mba  both — the full RDT-style isolation policy
//	auto     an initially partitioned table driven at runtime by the
//	         SLO feedback controller (internal/qos.Controller), which
//	         adapts the streamer's way mask and bandwidth cap to hold
//	         the service's rolling p99 at the target while letting the
//	         streamer draw every MB/s the target tolerates
//
// Per-tenant latency percentiles plus the MBM-style occupancy and
// bandwidth counters land in report.Cell.Extra (the auto cell adds the
// controller trajectory), and the markdown summary renders the
// victim's tail across policies (qosMarkdown).

// qosVariant is one CLOS policy applied to the scenario. slo, when
// set, attaches the SLO feedback controller, which reprograms the
// table at runtime.
type qosVariant struct {
	name string
	qos  *qos.Table
	slo  *qos.SLO
}

// qosClassNames are the CLOS labels of the built-in scenario; CLI
// overrides must address one of them.
var qosClassNames = []string{"latency", "stream"}

// qosVictim/qosAggressor name the scenario's tenants; the victim's
// p99 is the headline isolation metric.
const (
	qosVictim    = "latency"
	qosAggressor = "stream"
	qosScenario  = "stream+latency"
	qosPlatform  = "hams-LE"
)

// Built-in isolated-policy parameters (CLI-overridable): the service
// keeps ways 2-7, the streamer ways 0-1 and a 100 MB/s archive cap.
const (
	qosVictimMask    = 0xfc
	qosAggressorMask = 0x03
	qosAggressorMBps = 100
)

// Built-in parameters of the auto variant. Its initial table starts
// fully partitioned — the service holds 7 of 8 ways, the streamer 1,
// uncapped — and the controller meters the streamer's archive bandwidth
// from there: the victim's working set fits its partition, so its tail
// is pure bank/archive contention, exactly the axis an MBA cap
// controls.
const (
	autoVictimMask    = 0xfe
	autoAggressorMask = 0x01
	// autoSLOTargetP99 is the default rolling-p99 objective
	// (CLI-overridable via -slo-p99), sized between the cat+mba tail
	// floor (~3.3µs at bench scale) and the cat-only tail (~9µs): tight
	// enough that the controller clamps the streamer's bursts (holding
	// the victim's full-run p99 under every static policy's), loose
	// enough that the cap recovers to MaxMBps between bursts instead of
	// oscillating.
	autoSLOTargetP99 = 6 * sim.Microsecond
)

// ValidateQoSOverrides rejects -qos-masks/-qos-mbps entries that do
// not address a class of the built-in scenario, before anything runs.
// Entries are checked in sorted-name order so the error reported for a
// multi-typo invocation is the same on every run (map-order iteration
// here made the message flap; caught by hamslint/maporder).
func ValidateQoSOverrides(masks map[string]uint64, mbps map[string]float64) error {
	known := make(map[string]bool, len(qosClassNames))
	for _, n := range qosClassNames {
		known[n] = true
	}
	for _, name := range sortedNames(masks) {
		if !known[name] {
			return fmt.Errorf("experiments: -qos-masks: unknown class %q (have %s)",
				name, strings.Join(qosClassNames, ", "))
		}
	}
	for _, name := range sortedNames(mbps) {
		if !known[name] {
			return fmt.Errorf("experiments: -qos-mbps: unknown class %q (have %s)",
				name, strings.Join(qosClassNames, ", "))
		}
		if v := mbps[name]; v <= 0 {
			return fmt.Errorf("experiments: -qos-mbps: class %q: throttle must be positive, got %g", name, v)
		}
	}
	return nil
}

// sortedNames returns the map's keys in sorted order, the repo-wide
// idiom for deterministic iteration over user-supplied maps.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// qosTable assembles one variant's CLOS table. partitioned applies
// way masks, throttled applies the MBps cap; o's override maps
// replace the built-in values per class name.
func qosTable(o Options, partitioned, throttled bool) *qos.Table {
	mask := func(name string, def uint64) uint64 {
		if !partitioned {
			return 0 // full mask
		}
		if v, ok := o.QoSMasks[name]; ok {
			return v
		}
		return def
	}
	rate := func(name string, def float64) float64 {
		if !throttled {
			return 0
		}
		if v, ok := o.QoSMBps[name]; ok {
			return v
		}
		return def
	}
	return &qos.Table{Classes: []qos.Class{
		{Name: qosVictim, WayMask: mask(qosVictim, qosVictimMask), MBps: rate(qosVictim, 0)},
		{Name: qosAggressor, WayMask: mask(qosAggressor, qosAggressorMask), MBps: rate(qosAggressor, qosAggressorMBps)},
	}}
}

// autoSLO assembles the auto variant's controller objective.
func autoSLO(o Options) *qos.SLO {
	target := autoSLOTargetP99
	if o.SLOTargetP99 > 0 {
		target = o.SLOTargetP99
	}
	return &qos.SLO{
		Class:     qosVictim,
		TargetP99: target,
		Window:    512,
		MinMBps:   50,
		MaxMBps:   4000,
		AddMBps:   200,
		MinWays:   1,
		Hold:      2,
	}
}

// qosVariants builds the policy sweep.
func qosVariants(o Options) []qosVariant {
	auto := &qos.Table{Classes: []qos.Class{
		{Name: qosVictim, WayMask: autoVictimMask},
		{Name: qosAggressor, WayMask: autoAggressorMask},
	}}
	return []qosVariant{
		{name: "shared", qos: qosTable(o, false, false)},
		{name: "cat", qos: qosTable(o, true, false)},
		{name: "mba", qos: qosTable(o, false, true)},
		{name: "cat+mba", qos: qosTable(o, true, true)},
		{name: "auto", qos: auto, slo: autoSLO(o)},
	}
}

// qosScenarioFor assembles the co-location scenario under one policy.
// The geometry (8-way tag array over a 64 MiB NVDIMM: 384 cache pages
// in 48 sets) and the tenant intensities are fixed — independent of
// Options.Scale — because the isolation physics need the streamer to
// sweep the cache several times within the service's lifetime; see
// EXPERIMENTS.md. Tenant seeds derive from the cell seed so the
// variants stay stream-paired.
func qosScenarioFor(v qosVariant, seed int64) replay.Scenario {
	return replay.Scenario{
		Name:     qosScenario,
		Platform: qosPlatform,
		PlatOpts: platform.Options{HAMSWays: 8, HAMSNVDIMM: 64 * mem.MiB},
		Tenants: []replay.Tenant{
			{
				// The latency-sensitive service: a graph workload whose
				// 16 MiB working set (4 MiB × 4 threads) fits its 6-way
				// partition, with no cold traffic of its own — every
				// miss it suffers is inflicted by the neighbor.
				Name: qosVictim, Workload: "BFS", Class: qosVictim,
				Seed:  runner.DeriveSeed(seed, qosVictim),
				Scale: 1e-5, Hot: 4 * mem.MiB, HotFrac: 1.0,
			},
			{
				// The streaming tenant: sequential writes sweeping the
				// whole cache from a disjoint 64 GiB-offset footprint,
				// at 10× the service's intensity.
				Name: qosAggressor, Workload: "seqWr", Class: qosAggressor,
				Seed:  runner.DeriveSeed(seed, qosAggressor),
				Scale: 1e-4, Base: 64 * mem.GiB,
			},
		},
		QoS: v.qos,
		SLO: v.slo,
	}
}

// qosOut is one policy cell's output. auto marks the
// feedback-controlled variant.
type qosOut struct {
	variant string
	auto    bool
	rep     replay.Result
	cell    report.Cell
}

func (q qosOut) reportCell() report.Cell { return q.cell }

// reconfigs renders the controller's reprogramming count ("—" for a
// static policy).
func (q qosOut) reconfigs() string {
	if !q.auto {
		return "—"
	}
	return fmt.Sprint(q.rep.QoSReconfigs)
}

// QoS runs the isolation sweep and returns its console table plus the
// markdown victim-delta table.
func QoS(o Options) ([]*stats.Table, string, error) {
	if err := ValidateQoSOverrides(o.QoSMasks, o.QoSMBps); err != nil {
		return nil, "", err
	}
	variants := qosVariants(o)
	jobs := make([]cellJob, len(variants))
	for i, v := range variants {
		v := v
		jobs[i] = cellJob{
			key:     qosScenario + "/" + v.name + "@" + qosPlatform,
			seedKey: qosScenario,
			fn: func(ctx context.Context, seed int64) (any, error) {
				return qosCell(o, v, seed)
			},
		}
	}
	vals, err := runCellJobs(o, "qos", jobs)
	if err != nil {
		return nil, "", err
	}
	t := stats.NewTable("QoS: RDT-style isolation — static CLOS policies and SLO feedback control",
		"scenario", "policy", "tenant", "p50", "p95", "p99", "occ(pages)", "fill MB/s", "wb MB/s", "throttled", "units/s", "reconfigs")
	outs := make([]qosOut, 0, len(vals))
	for _, val := range vals {
		q, ok := val.(qosOut)
		if !ok {
			return nil, "", fmt.Errorf("experiments: qos cell returned %T", val)
		}
		outs = append(outs, q)
		for _, ten := range q.rep.Tenants {
			t.AddRow(q.rep.Scenario, q.variant, ten.Name,
				fmt.Sprintf("%dns", ten.P50), fmt.Sprintf("%dns", ten.P95), fmt.Sprintf("%dns", ten.P99),
				fmt.Sprint(ten.QoS.Occupancy),
				stats.F(ten.QoS.FillMBps(q.rep.CPU.Elapsed)),
				stats.F(ten.QoS.WBMBps(q.rep.CPU.Elapsed)),
				fmt.Sprintf("%v", ten.QoS.ThrottleNS),
				"", "")
		}
		t.AddRow(q.rep.Scenario, q.variant, "(all)", "", "", "", "", "", "", "",
			fmt.Sprintf("%.0f", q.rep.UnitsPerSec()), q.reconfigs())
	}
	return []*stats.Table{t}, qosMarkdown(outs), nil
}

// qosCell runs one policy variant.
func qosCell(o Options, v qosVariant, seed int64) (qosOut, error) {
	sc := qosScenarioFor(v, seed)
	sc.PlatOpts = o.applyMSHRs(sc.PlatOpts)
	rep, err := replay.Run(sc, replay.Options{Seed: seed})
	if err != nil {
		return qosOut{}, err
	}
	extra := make(map[string]float64, 8*len(rep.Tenants))
	for _, ten := range rep.Tenants {
		extra["p50_ns:"+ten.Name] = float64(ten.P50)
		extra["p95_ns:"+ten.Name] = float64(ten.P95)
		extra["p99_ns:"+ten.Name] = float64(ten.P99)
		extra["units:"+ten.Name] = float64(ten.Units)
		extra["occ_pages:"+ten.Name] = float64(ten.QoS.Occupancy)
		extra["occ_peak:"+ten.Name] = float64(ten.QoS.OccupancyPeak)
		extra["fill_mbps:"+ten.Name] = ten.QoS.FillMBps(rep.CPU.Elapsed)
		extra["wb_mbps:"+ten.Name] = ten.QoS.WBMBps(rep.CPU.Elapsed)
		extra["throttle_ns:"+ten.Name] = float64(ten.QoS.ThrottleNS)
	}
	if v.slo != nil {
		// Controller trajectory: how many reprogrammings it issued and
		// where the policy ended up. Masks serialize as their numeric
		// value (0 = full, matching qos.FormatMask's input convention).
		extra["reconfigs"] = float64(rep.QoSReconfigs)
		extra["slo_target_p99_ns"] = float64(v.slo.TargetP99)
		for _, cl := range rep.QoSFinal {
			extra["final_mask:"+cl.Name] = float64(cl.WayMask)
			extra["final_mbps:"+cl.Name] = cl.MBps
		}
	}
	return qosOut{
		variant: v.name,
		auto:    v.slo != nil,
		rep:     rep,
		cell:    scenarioCell(rep, qosScenario+"/"+v.name, extra),
	}, nil
}

// qosMarkdown renders the isolation delta table: the victim's tail
// latency under every policy, relative to the unpartitioned baseline,
// with the controller's trajectory on the auto row.
func qosMarkdown(outs []qosOut) string {
	var basep99 sim.Time
	for _, q := range outs {
		if q.variant == "shared" {
			basep99 = tenantStat(q.rep, qosVictim).P99
		}
	}
	var b strings.Builder
	b.WriteString("### QoS isolation: victim tail latency by policy\n\n")
	b.WriteString("| policy | victim p95 | victim p99 | Δp99 vs shared | victim occupancy | streamer fill MB/s | streamer throttled | reconfigs | final streamer cap |\n")
	b.WriteString("|---|---:|---:|---:|---:|---:|---:|---:|---:|\n")
	for _, q := range outs {
		vict := tenantStat(q.rep, qosVictim)
		aggr := tenantStat(q.rep, qosAggressor)
		delta := "—"
		if q.variant != "shared" && basep99 > 0 {
			delta = fmt.Sprintf("%+.1f%%", (float64(vict.P99)-float64(basep99))/float64(basep99)*100)
		}
		finalCap := "—"
		if q.auto {
			for _, cl := range q.rep.QoSFinal {
				if cl.Name == qosAggressor {
					finalCap = "uncapped"
					if cl.MBps > 0 {
						finalCap = fmt.Sprintf("%.0f MB/s", cl.MBps)
					}
				}
			}
		}
		fmt.Fprintf(&b, "| %s | %dns | %dns | %s | %d pages | %.0f | %v | %s | %s |\n",
			q.variant, vict.P95, vict.P99, delta, vict.QoS.Occupancy,
			aggr.QoS.FillMBps(q.rep.CPU.Elapsed), aggr.QoS.ThrottleNS, q.reconfigs(), finalCap)
	}
	return b.String()
}

// tenantStat finds a tenant's stats block by name.
func tenantStat(r replay.Result, name string) replay.TenantStats {
	for _, t := range r.Tenants {
		if t.Name == name {
			return t
		}
	}
	return replay.TenantStats{}
}
