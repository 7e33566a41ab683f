package experiments

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"hams/internal/qos"
	"hams/internal/replay"
	"hams/internal/runner"
	"hams/internal/sim"
)

// qosGate holds the qos target's five cells at the gate's seed, run
// once per test binary: TestQoSIsolationGolden and TestAutoQoSAcceptance
// assert different relations over the same cells.
var qosGate struct {
	once sync.Once
	outs []qosOut
	err  error
}

// qosGateCells returns the five qos cells in variant order and indexed
// by variant name. Everything here is simulated time, so the cells are
// exact and deterministic — the same cells run in CI's bench gate
// (seed 42, the gate's seed).
func qosGateCells(t *testing.T) ([]qosOut, map[string]qosOut) {
	t.Helper()
	if testing.Short() {
		t.Skip("multi-second isolation scenario")
	}
	qosGate.once.Do(func() {
		o := Options{Seed: 42}
		seed := runner.DeriveSeed(o.Seed, qosScenario)
		for _, v := range qosVariants(o) {
			out, err := qosCell(Options{}, v, seed)
			if err != nil {
				qosGate.err = fmt.Errorf("%s: %w", v.name, err)
				return
			}
			qosGate.outs = append(qosGate.outs, out)
		}
	})
	if qosGate.err != nil {
		t.Fatal(qosGate.err)
	}
	byName := make(map[string]qosOut, len(qosGate.outs))
	for _, out := range qosGate.outs {
		byName[out.variant] = out
	}
	return qosGate.outs, byName
}

// TestQoSIsolationGolden is the static isolation acceptance pin: in the
// qos target's own scenario (streaming tenant + latency-sensitive
// service), the full RDT policy (cat+mba) must deliver the victim a
// measurably lower p99 than free-for-all sharing, way partitioning
// must keep the victim's pages resident, and the throttle must have
// actually engaged.
func TestQoSIsolationGolden(t *testing.T) {
	_, byName := qosGateCells(t)
	shared, iso := byName["shared"].rep, byName["cat+mba"].rep

	sharedVict := tenantStat(shared, qosVictim)
	isoVict := tenantStat(iso, qosVictim)
	// The headline: partitioning on beats partitioning off on victim
	// tail latency, with margin (measured ~2.7× at this seed).
	if isoVict.P99*3 >= sharedVict.P99*2 {
		t.Fatalf("victim p99 not measurably lower with QoS on: shared %dns vs cat+mba %dns",
			sharedVict.P99, isoVict.P99)
	}
	if isoVict.P95 >= sharedVict.P95 {
		t.Fatalf("victim p95 not lower with QoS on: shared %dns vs cat+mba %dns",
			sharedVict.P95, isoVict.P95)
	}
	// CAT: the victim's partition kept its working set resident; in
	// the free-for-all the streamer swept every victim page out.
	if sharedVict.QoS.Occupancy != 0 {
		t.Fatalf("shared: victim still owns %d pages (streamer should have swept them)",
			sharedVict.QoS.Occupancy)
	}
	if isoVict.QoS.Occupancy == 0 {
		t.Fatal("cat+mba: victim owns no pages despite its partition")
	}
	// MBA: the throttle engaged on the streamer and only the streamer.
	isoAggr := tenantStat(iso, qosAggressor)
	if isoAggr.QoS.ThrottleNS == 0 {
		t.Fatal("cat+mba: streamer was never throttled")
	}
	if isoVict.QoS.ThrottleNS != 0 {
		t.Fatalf("cat+mba: victim absorbed %v of throttle debt", isoVict.QoS.ThrottleNS)
	}
	// And the streamer's achieved bandwidth respects the cap (with
	// slack for the final in-flight transfer).
	if got := isoAggr.QoS.FillMBps(iso.CPU.Elapsed); got > qosAggressorMBps*1.05 {
		t.Fatalf("cat+mba: streamer fill bandwidth %.1f MB/s exceeds the %d MB/s cap", got, qosAggressorMBps)
	}
}

// TestAutoQoSAcceptance is the feedback-control acceptance pin, the
// relation the bench gate's qos auto cell encodes: the controller must
// hold the victim's tail at or under every static policy's while
// letting the aggressor make strictly faster progress than the static
// cat+mba clamp — the closed loop dominates the static sweep on both
// axes instead of trading one for the other.
func TestAutoQoSAcceptance(t *testing.T) {
	outs, byName := qosGateCells(t)
	iso, auto := byName["cat+mba"].rep, byName["auto"]

	// The controller actually ran a trajectory, and the auto cell — and
	// only the auto cell — carries it.
	if auto.rep.QoSReconfigs == 0 {
		t.Fatal("controller never reprogrammed the table")
	}
	if auto.cell.Extra["reconfigs"] != float64(auto.rep.QoSReconfigs) {
		t.Fatalf("cell reconfigs extra = %v, result says %d",
			auto.cell.Extra["reconfigs"], auto.rep.QoSReconfigs)
	}
	if auto.cell.Extra["final_mask:"+qosAggressor] == 0 &&
		auto.cell.Extra["final_mbps:"+qosAggressor] == 0 {
		t.Fatal("cell extras carry no final streamer policy")
	}
	if _, ok := byName["cat+mba"].cell.Extra["reconfigs"]; ok {
		t.Fatal("static cell carries controller extras")
	}

	// Victim tail: the controller holds p99 at or under every static
	// policy, including the full cat+mba clamp.
	autoVict := tenantStat(auto.rep, qosVictim)
	for _, out := range outs {
		if sv := tenantStat(out.rep, qosVictim); autoVict.P99 > sv.P99 {
			t.Errorf("auto victim p99 %dns above static %s's %dns",
				autoVict.P99, out.variant, sv.P99)
		}
	}
	// Aggressor progress: every variant retires the same fixed unit
	// count, so progress is rate — units over simulated elapsed. The
	// controller must beat the static clamp it replaces.
	rate := func(rep replay.Result) float64 {
		return float64(tenantStat(rep, qosAggressor).Units) / rep.CPU.Elapsed.Seconds()
	}
	if ar, sr := rate(auto.rep), rate(iso); ar <= sr {
		t.Fatalf("auto aggressor rate %.0f units/s does not beat static cat+mba's %.0f",
			ar, sr)
	}

	// The summary has one row per variant, the trajectory on the auto
	// row only.
	md := qosMarkdown(outs)
	for _, v := range outs {
		if !strings.Contains(md, "| "+v.variant+" |") {
			t.Fatalf("summary markdown has no %s row:\n%s", v.variant, md)
		}
	}
	if want := fmt.Sprintf("| %d | ", auto.rep.QoSReconfigs); !strings.Contains(md, want) {
		t.Fatalf("summary markdown does not carry the auto row's reconfigs %q:\n%s", want, md)
	}
}

// TestQoSOverrideErrorDeterministic pins the fix hamslint/maporder
// forced: with several unknown classes in one invocation, the error
// must name the lexically-first one on every run, not whichever the
// map iterator yields. 32 repetitions would flap without the sorted
// iteration (map order is re-randomized per run and per map).
func TestQoSOverrideErrorDeterministic(t *testing.T) {
	for i := 0; i < 32; i++ {
		masks := map[string]uint64{"zeta": 1, "alpha": 2, "mid": 3}
		err := ValidateQoSOverrides(masks, nil)
		if err == nil {
			t.Fatal("unknown classes accepted")
		}
		if !strings.Contains(err.Error(), `unknown class "alpha"`) {
			t.Fatalf("iteration %d: error names %v, want the lexically-first class alpha", i, err)
		}
		mbps := map[string]float64{"zzz": 5, "bbb": 6}
		err = ValidateQoSOverrides(nil, mbps)
		if err == nil || !strings.Contains(err.Error(), `unknown class "bbb"`) {
			t.Fatalf("iteration %d: -qos-mbps error = %v, want it to name bbb", i, err)
		}
	}
}

// TestQoSMarkdownAndOverrides covers the CI summary rendering and the
// up-front override validation.
func TestQoSMarkdownAndOverrides(t *testing.T) {
	if err := ValidateQoSOverrides(map[string]uint64{"latency": 0xf0}, nil); err != nil {
		t.Fatalf("valid mask override rejected: %v", err)
	}
	if err := ValidateQoSOverrides(map[string]uint64{"nope": 1}, nil); err == nil {
		t.Fatal("unknown mask class accepted")
	}
	if err := ValidateQoSOverrides(nil, map[string]float64{"nope": 5}); err == nil {
		t.Fatal("unknown throttle class accepted")
	}
	if err := ValidateQoSOverrides(nil, map[string]float64{"stream": -1}); err == nil {
		t.Fatal("negative throttle accepted")
	}
	// Override plumbing: the isolated table reflects the CLI values.
	o := Options{
		QoSMasks: map[string]uint64{"latency": 0xf0, "stream": 0x0f},
		QoSMBps:  map[string]float64{"stream": 250},
	}
	tab := qosTable(o, true, true)
	if id, ok := tab.ByName("latency"); !ok || tab.Classes[id].WayMask != 0xf0 {
		t.Fatalf("mask override not applied: %+v", tab.Classes)
	}
	if id, ok := tab.ByName("stream"); !ok || tab.Classes[id].MBps != 250 {
		t.Fatalf("throttle override not applied: %+v", tab.Classes)
	}

	// Summary rendering: Δp99 is relative to shared, and only the auto
	// row reports the controller's trajectory.
	vict := func(p99 sim.Time) replay.Result {
		return replay.Result{Tenants: []replay.TenantStats{{Name: qosVictim, P99: p99}}}
	}
	autoRep := vict(1000)
	autoRep.QoSReconfigs = 7
	autoRep.QoSFinal = []qos.Class{{Name: qosVictim}, {Name: qosAggressor, MBps: 250}}
	md := qosMarkdown([]qosOut{
		{variant: "shared", rep: vict(4000)},
		{variant: "cat", rep: vict(2000)},
		{variant: "auto", auto: true, rep: autoRep},
	})
	for _, want := range []string{
		"| shared | 0ns | 4000ns | — |",
		"| cat | 0ns | 2000ns | -50.0% |",
		"| — | — |\n",
		"| auto | 0ns | 1000ns | -75.0% |",
		"| 7 | 250 MB/s |\n",
	} {
		if !strings.Contains(md, want) {
			t.Fatalf("summary markdown missing %q:\n%s", want, md)
		}
	}
	// Table validation catches masks beyond the sweep's 8-way array
	// when the scenario is built (replay.Run -> core.New).
	bad := qosVariant{name: "cat", qos: &qos.Table{Classes: []qos.Class{
		{Name: qosVictim, WayMask: 1 << 20},
		{Name: qosAggressor},
	}}}
	if _, err := qosCell(Options{}, bad, 1); err == nil {
		t.Fatal("out-of-range mask accepted by scenario build")
	}
}
