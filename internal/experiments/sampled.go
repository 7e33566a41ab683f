package experiments

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"time"

	"hams/internal/checkpoint"
	"hams/internal/mem"
	"hams/internal/platform"
	"hams/internal/replay"
	"hams/internal/report"
	"hams/internal/runner"
	"hams/internal/sim"
	"hams/internal/stats"
)

// This file hosts the `sampled` target: SMARTS-style sampled
// simulation on top of the checkpoint subsystem (internal/checkpoint).
// Two cells on one co-location scenario:
//
//	split    a phase-split run (warm-up + measured phase) with interval
//	         sampling enabled — the cell pins both the full measured
//	         percentiles and the sampled ones, plus their relative
//	         error, and fails if sampling drifts past the pinned bounds
//	         (observation gating must never perturb the simulation, so
//	         both views come from the same run).
//	fanout   the warm-up amortization gate: N measured cells run once
//	         each from live warm-ups and once from a single shared
//	         checkpoint; every restored result must be bit-identical to
//	         its live counterpart AND the checkpointed path must beat
//	         per-cell live warm-up by ≥2× wall clock. Wall times feed
//	         only the markdown summary (never cell extras — BENCH cells
//	         stay byte-identical across hosts).
//
// The scenario intensities are fixed, independent of Options.Scale,
// because the amortization physics need the warm-up to dominate the
// measured phase (~8:1) — see EXPERIMENTS.md.

const (
	sampledScenario = "warm+measure"
	sampledPlatform = "hams-LE"
	// The per-thread warm-up lengths. The service's streams run ~2920
	// steps and the streamer's ~3015 at the pinned scales. The split
	// cell keeps a longer measured phase (~220-315 steps/thread) so the
	// sampled percentiles have enough observations to stay inside the
	// error bounds; the fan-out cell trims it to the last ~2-5% so the
	// warm-up dominates the cost being amortized. Footprints are pinned
	// (svc over 24 MiB, bulk over 48 MiB — just past the 64 MiB cache,
	// so evictions stay in play) rather than sprayed over a huge
	// address space: restore materializes every touched frame and
	// buffer slot, and an unbounded footprint makes save/restore cost
	// eat the amortization the warm-up buys.
	sampledWarmupSplit  = 2700
	sampledWarmupFanout = 2900
	// sampledFanout is N, the number of measured cells one warm-up is
	// amortized over.
	sampledFanout = 8
	// sampledSpeedupFloor is the CI gate: restoring N cells from one
	// checkpoint must beat N live warm-ups by at least this factor
	// (the configuration above yields ~2.5-3×; 2× leaves headroom for
	// host noise without letting the win regress to parity — the floor
	// the EXPERIMENTS.md checkpoint section documents).
	sampledSpeedupFloor = 2.0
	// Sampling error bounds the split cell enforces per tenant, as
	// fractions of the full-run value. SMARTS gates mean performance,
	// so the mean is bounded tightly, and p50 with it (the bulk of the
	// distribution is stable under interval sampling). The high
	// quantiles — p95, p99, max — ride the log-bucketed tail staircase
	// (p95 ≈ 2 ns, p99 ≈ 128 ns, max ≈ 200 µs here), where a tiny
	// shift in sampled tail mass jumps the percentile a whole bucket
	// and the relative error with it; they are recorded in the cell
	// extras but not gated.
	sampledMeanErrBound = 0.10
	sampledP50ErrBound  = 0.10
)

// sampledGateWallClock arms the fan-out cell's wall-clock speedup
// floor. The determinism tests disarm it: under instrumentation
// (-race) host timing ratios are meaningless, and the cells' contents
// — which is what those tests compare — do not depend on it.
var sampledGateWallClock = true

// sampledSampler is the split cell's interval schedule: observe 2 µs,
// skip 8 µs — a 1-in-5 duty cycle whose short period packs hundreds
// of windows into the measured phase at the pinned scales, so bursty
// miss clusters are interleaved rather than caught whole.
func sampledSampler() checkpoint.Sampler {
	return checkpoint.Sampler{
		Measure: 2 * int64(sim.Microsecond),
		Skip:    8 * int64(sim.Microsecond),
	}
}

// sampledScenarioFor assembles the co-location the target runs: a
// hot-set random-read service next to a random-write streamer on a
// small MoS cache with the non-blocking miss pipeline, so the warm-up
// leaves nontrivial state in every layer the checkpoint carries.
func sampledScenarioFor(seed int64, warmup int64) replay.Scenario {
	return replay.Scenario{
		Name:     sampledScenario,
		Platform: sampledPlatform,
		PlatOpts: platform.Options{HAMSWays: 4, HAMSNVDIMM: 64 * mem.MiB, HAMSMSHRs: 4},
		Tenants: []replay.Tenant{
			{
				Name: "svc", Workload: "rndRd",
				Seed:  runner.DeriveSeed(seed, "svc"),
				Scale: 4e-5, Dataset: 24 * mem.MiB, Hot: 4 * mem.MiB, HotFrac: 0.8,
			},
			{
				Name: "bulk", Workload: "rndWr",
				Seed:  runner.DeriveSeed(seed, "bulk"),
				Scale: 3e-5, Dataset: 48 * mem.MiB, Base: mem.GiB,
			},
		},
		Warmup: warmup,
	}
}

// sampledOut is one cell's output.
type sampledOut struct {
	kind string
	rep  replay.Result
	cell report.Cell
	// fan-out wall times (markdown only).
	liveWall, fanWall time.Duration
}

func (s sampledOut) reportCell() report.Cell { return s.cell }

// Sampled runs the target and returns its console table plus the
// warm-up amortization markdown.
func Sampled(o Options) ([]*stats.Table, string, error) {
	jobs := []cellJob{
		{
			key:     sampledScenario + "/split@" + sampledPlatform,
			seedKey: sampledScenario,
			fn: func(ctx context.Context, seed int64) (any, error) {
				return sampledSplitCell(o, seed)
			},
		},
		{
			key:     sampledScenario + "/fanout@" + sampledPlatform,
			seedKey: sampledScenario,
			fn: func(ctx context.Context, seed int64) (any, error) {
				return sampledFanoutCell(o, seed)
			},
		},
	}
	vals, err := runCellJobs(o, "sampled", jobs)
	if err != nil {
		return nil, "", err
	}
	outs := make([]sampledOut, 0, len(vals))
	for _, v := range vals {
		s, ok := v.(sampledOut)
		if !ok {
			return nil, "", fmt.Errorf("experiments: sampled cell returned %T", v)
		}
		outs = append(outs, s)
	}
	t := stats.NewTable("Sampled simulation: checkpointed warm-up + interval measurement",
		"cell", "tenant", "mean", "p50", "p99", "sampled p50", "sampled p99", "accesses", "sampled")
	for _, s := range outs {
		for i, ten := range s.rep.Tenants {
			sp50, sp99, sacc := "—", "—", "—"
			if i < len(s.rep.Sampled) {
				sm := s.rep.Sampled[i]
				sp50 = fmt.Sprintf("%dns", sm.P50)
				sp99 = fmt.Sprintf("%dns", sm.P99)
				sacc = fmt.Sprint(sm.Accesses)
			}
			t.AddRow(s.kind, ten.Name,
				fmt.Sprintf("%dns", ten.Mean), fmt.Sprintf("%dns", ten.P50), fmt.Sprintf("%dns", ten.P99),
				sp50, sp99, fmt.Sprint(ten.Accesses), sacc)
		}
	}
	return []*stats.Table{t}, sampledMarkdown(outs), nil
}

// relErr is |a-b| / b, 0 when both are 0.
func relErr(a, b sim.Time) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return 1
	}
	d := float64(a) - float64(b)
	if d < 0 {
		d = -d
	}
	return d / float64(b)
}

// sampledSplitCell runs the phase-split scenario with interval
// sampling and pins the sampled-vs-full error inside the bounds.
func sampledSplitCell(o Options, seed int64) (sampledOut, error) {
	sc := sampledScenarioFor(seed, sampledWarmupSplit)
	sc.PlatOpts = o.applyMSHRs(sc.PlatOpts)
	sc.Sample = sampledSampler()
	rep, err := replay.Run(sc, replay.Options{Seed: seed})
	if err != nil {
		return sampledOut{}, err
	}
	if rep.CPU.Instructions == 0 || len(rep.Sampled) != len(rep.Tenants) {
		return sampledOut{}, fmt.Errorf("experiments: sampled split cell measured nothing")
	}
	extra := make(map[string]float64, 10*len(rep.Tenants)+2)
	extra["warmup_steps"] = float64(sampledWarmupSplit)
	extra["sample_measure_ns"] = float64(sc.Sample.Measure)
	extra["sample_skip_ns"] = float64(sc.Sample.Skip)
	for i, ten := range rep.Tenants {
		sm := rep.Sampled[i]
		if sm.Accesses == 0 || sm.Accesses >= ten.Accesses {
			return sampledOut{}, fmt.Errorf("experiments: tenant %s: sampled %d of %d accesses, want a strict nonempty subset",
				ten.Name, sm.Accesses, ten.Accesses)
		}
		meanErr := relErr(sm.Mean, ten.Mean)
		p50Err := relErr(sm.P50, ten.P50)
		if meanErr > sampledMeanErrBound || p50Err > sampledP50ErrBound {
			return sampledOut{}, fmt.Errorf("experiments: tenant %s: sampling error out of bounds (mean %.3f, p50 %.3f)",
				ten.Name, meanErr, p50Err)
		}
		extra["p50_ns:"+ten.Name] = float64(ten.P50)
		extra["p95_ns:"+ten.Name] = float64(ten.P95)
		extra["p99_ns:"+ten.Name] = float64(ten.P99)
		extra["mean_ns:"+ten.Name] = float64(ten.Mean)
		extra["sampled_p50_ns:"+ten.Name] = float64(sm.P50)
		extra["sampled_p95_ns:"+ten.Name] = float64(sm.P95)
		extra["sampled_p99_ns:"+ten.Name] = float64(sm.P99)
		extra["sampled_mean_ns:"+ten.Name] = float64(sm.Mean)
		extra["sampled_accesses:"+ten.Name] = float64(sm.Accesses)
		extra["accesses:"+ten.Name] = float64(ten.Accesses)
		extra["units:"+ten.Name] = float64(ten.Units)
	}
	return sampledOut{kind: "split", rep: rep, cell: scenarioCell(rep, sampledScenario+"/split", extra)}, nil
}

// SampledCheckpoint runs the sampled scenario's warm-up phase once at
// the fan-out configuration and returns the quiesced image — the
// producer half of hamsbench -checkpoint. The seed derivation matches
// the fan-out cell's exactly, so a saved image feeds a later
// -from-checkpoint run of the same -seed without a mismatch.
func SampledCheckpoint(o Options) (*checkpoint.Image, error) {
	seed := runner.DeriveSeed(o.Seed, sampledScenario)
	sc := sampledScenarioFor(seed, sampledWarmupFanout)
	sc.PlatOpts = o.applyMSHRs(sc.PlatOpts)
	return replay.Warmup(sc, replay.Options{Seed: seed})
}

// sampledFanoutCell is the amortization gate. It runs the same
// measured phase sampledFanout times the expensive way (live warm-up
// per cell) and the checkpointed way (one warm-up, N restores),
// demands bit-identical results, and enforces the wall-clock floor.
// With Options.Checkpoint set (hamsbench -from-checkpoint) the
// warm-up is pre-paid: the provided image replaces the Warmup call,
// and a mismatched image fails the restore rather than the gate.
func sampledFanoutCell(o Options, seed int64) (sampledOut, error) {
	sc := sampledScenarioFor(seed, sampledWarmupFanout)
	sc.PlatOpts = o.applyMSHRs(sc.PlatOpts)
	ro := replay.Options{Seed: seed}

	// The fan-out cell's whole point is a wall-clock amortization
	// claim (N restores cheaper than N warm-ups); these readings feed
	// only the host-speed floor and the markdown summary —
	// never a deterministic cell field, which statszero enforces.
	//hamslint:allow hostclock — wall-clock amortization floor: host-speed channel by design
	liveStart := time.Now()
	lives := make([]replay.Result, sampledFanout)
	for i := range lives {
		var err error
		if lives[i], err = replay.Run(sc, ro); err != nil {
			return sampledOut{}, err
		}
	}
	liveWall := time.Since(liveStart) //hamslint:allow hostclock — wall-clock amortization floor: host-speed channel by design

	fanStart := time.Now() //hamslint:allow hostclock — wall-clock amortization floor: host-speed channel by design
	img := o.Checkpoint
	if img == nil {
		var err error
		if img, err = replay.Warmup(sc, ro); err != nil {
			return sampledOut{}, err
		}
	}
	restored := make([]replay.Result, sampledFanout)
	for i := range restored {
		rsc := sampledScenarioFor(seed, 0)
		rsc.PlatOpts = o.applyMSHRs(rsc.PlatOpts)
		rsc.Checkpoint = img
		var err error
		if restored[i], err = replay.Run(rsc, ro); err != nil {
			return sampledOut{}, err
		}
	}
	fanWall := time.Since(fanStart) //hamslint:allow hostclock — wall-clock amortization floor: host-speed channel by design

	for i := range restored {
		if !reflect.DeepEqual(lives[i], restored[i]) {
			return sampledOut{}, fmt.Errorf("experiments: fan-out cell %d diverged from its live warm-up twin", i)
		}
	}
	if lives[0].CPU.Instructions == 0 || lives[0].Units == 0 {
		return sampledOut{}, fmt.Errorf("experiments: fan-out measured phase did no work")
	}
	speedup := float64(liveWall) / float64(fanWall)
	if sampledGateWallClock && speedup < sampledSpeedupFloor {
		return sampledOut{}, fmt.Errorf("experiments: checkpoint fan-out speedup %.2fx below the %.1fx floor (live %v, fan-out %v)",
			speedup, sampledSpeedupFloor, liveWall, fanWall)
	}

	rep := lives[0]
	extra := make(map[string]float64, 3*len(rep.Tenants)+3)
	// Deterministic amortization facts only — wall times go to the
	// markdown summary, never into the artifact.
	extra["fanout_cells"] = float64(sampledFanout)
	extra["warmup_steps"] = float64(sampledWarmupFanout)
	extra["checkpoint_sim_ns"] = float64(img.SimTime)
	for _, ten := range rep.Tenants {
		extra["p99_ns:"+ten.Name] = float64(ten.P99)
		extra["units:"+ten.Name] = float64(ten.Units)
		extra["accesses:"+ten.Name] = float64(ten.Accesses)
	}
	return sampledOut{
		kind:     "fanout",
		rep:      rep,
		liveWall: liveWall,
		fanWall:  fanWall,
		cell:     scenarioCell(rep, sampledScenario+"/fanout", extra),
	}, nil
}

// sampledMarkdown renders the warm-up amortization table for CI step
// summaries. This is the only place wall-clock figures surface.
func sampledMarkdown(outs []sampledOut) string {
	var b strings.Builder
	b.WriteString("### Checkpointed warm-up amortization\n\n")
	var fan *sampledOut
	for i := range outs {
		if outs[i].kind == "fanout" {
			fan = &outs[i]
		}
	}
	if fan == nil {
		b.WriteString("No fan-out cell recorded.\n")
		return b.String()
	}
	speedup := float64(fan.liveWall) / float64(fan.fanWall)
	b.WriteString("| cells | warm-up steps/thread | live warm-ups | 1 checkpoint + restores | speedup |\n")
	b.WriteString("|---:|---:|---:|---:|---:|\n")
	fmt.Fprintf(&b, "| %d | %d | %v | %v | %.2fx |\n\n",
		sampledFanout, sampledWarmupFanout,
		fan.liveWall.Round(time.Millisecond), fan.fanWall.Round(time.Millisecond), speedup)
	for _, s := range outs {
		if s.kind != "split" {
			continue
		}
		b.WriteString("Interval sampling (observe 2 µs / skip 8 µs) vs the full measured phase:\n\n")
		b.WriteString("| tenant | full p99 | sampled p99 | full accesses | sampled |\n")
		b.WriteString("|---|---:|---:|---:|---:|\n")
		for i, ten := range s.rep.Tenants {
			if i >= len(s.rep.Sampled) {
				continue
			}
			sm := s.rep.Sampled[i]
			fmt.Fprintf(&b, "| %s | %dns | %dns | %d | %d |\n",
				ten.Name, ten.P99, sm.P99, ten.Accesses, sm.Accesses)
		}
	}
	return b.String()
}
