// Package replay adapts recorded traces and synthetic Table III
// workloads into executable scenarios: it assembles per-tenant
// cpu.Streams, warms the platform with each tenant's steady-state
// regions, drives everything through one cpu.Runner on a shared
// memory system, and reports per-tenant progress and latency
// percentiles (p50/p95/p99 from stats.Histogram).
//
// Determinism contract: replaying a v2 trace recorded from a live
// workload run reproduces that run's simulated statistics bit-for-bit
// (pinned by this package's golden test and re-checked by every
// `hamsbench replay` cell), and a scenario's result is a pure function
// of (Scenario, Options) — never of host scheduling.
package replay

import (
	"fmt"
	"io"

	"hams/internal/checkpoint"
	"hams/internal/core"
	"hams/internal/cpu"
	"hams/internal/energy"
	"hams/internal/mem"
	"hams/internal/platform"
	"hams/internal/qos"
	"hams/internal/sim"
	"hams/internal/stats"
	"hams/internal/trace"
	"hams/internal/workload"
)

// Tenant is one co-located traffic source of a scenario: either a
// recorded trace (Trace non-nil) or a synthetic Table III workload
// generated on the fly.
type Tenant struct {
	// Name labels the tenant in per-tenant breakdowns and derives
	// nothing — two tenants may share a workload but not a name.
	Name string
	// Trace selects trace-backed streams. When TraceLabel is empty the
	// tenant replays every thread of the file; otherwise only threads
	// recorded under that label.
	Trace      *trace.File
	TraceLabel string
	// Workload names a Table III spec for synthetic tenants
	// (ignored when Trace is set).
	Workload string
	// Seed overrides the scenario-level stream seed for this tenant —
	// required when two synthetic tenants share a workload, or their
	// streams would be perfectly correlated.
	Seed int64
	// Class names the tenant's class of service in Scenario.QoS (the
	// CLOS its accesses are tagged with). Empty = the default class 0.
	// Several tenants may share a class; monitoring counters are then
	// shared too, as on real RDT hardware.
	Class string
	// Base offsets every address the tenant issues (and its warm
	// regions) by this many bytes, giving co-located tenants disjoint
	// MoS footprints — without it, two tenants running the same
	// workload literally share pages, which models shared data, not
	// separate customers. 0 keeps the workload's own addresses.
	Base uint64
	// Scale overrides Options.Scale for this tenant (0 = inherit):
	// co-location studies need a heavyweight background tenant next to
	// a lightweight latency-sensitive one.
	Scale float64
	// Hot overrides the synthetic workload's hot-region size in bytes
	// (0 = the workload default) — the tenant's steady-state working
	// set, which isolation scenarios size against its cache partition.
	Hot uint64
	// HotFrac overrides the fraction of the workload's random traffic
	// that stays inside the hot region (0 = the workload default). A
	// latency-sensitive service with HotFrac 1 has a fully cacheable
	// working set: every miss it suffers is inflicted by a neighbor.
	HotFrac float64
	// Dataset overrides the workload's Table III footprint in bytes
	// (0 = the spec value). Checkpoint-centric scenarios pin it: the
	// touched footprint is the state an image must carry, and a 16 GiB
	// default span makes save/restore cost scale with the address
	// space instead of the working set.
	Dataset uint64
}

// Scenario composes N tenants onto one platform. Every tenant thread
// gets its own core; the memory system, MoS cache, and archive
// bandwidth are shared — the contention under test. A QoS table turns
// free-for-all sharing into policed sharing.
type Scenario struct {
	Name     string
	Platform string
	PlatOpts platform.Options
	Tenants  []Tenant
	// QoS is the scenario's CLOS table (way partitions + bandwidth
	// throttles, see internal/qos), installed into the platform's MoS
	// controller. nil runs unpartitioned; a table whose classes all
	// have full masks and no throttle reproduces the nil behavior
	// bit-for-bit (pinned by TestQoSFullMaskParity).
	QoS *qos.Table
	// Policy is a sim-time-scheduled timeline of runtime class
	// reprogrammings (requires QoS; class names resolve against it).
	// Changes latch deterministically at request arrivals, so a
	// scenario with a policy timeline still replays bit-for-bit.
	Policy []PolicyChange
	// SLO attaches the AIMD feedback controller (internal/qos): hold
	// the named victim class's rolling p99 at the target by adapting
	// the other classes' way masks and bandwidth caps at runtime.
	// Requires QoS; composes with Policy (scheduled changes and
	// controller actions apply through the same mutation path).
	SLO *qos.SLO
	// Warmup splits the run into two phases: each tenant thread's
	// first Warmup steps execute as a warm-up whose statistics are
	// discarded, then the platform is quiesced and the remaining steps
	// run as the measured phase on the same timeline. Reported stats
	// (CPU, units, histograms, energy) cover only the measured phase.
	// 0 keeps the single-phase behavior unchanged.
	Warmup int64
	// Checkpoint, when non-nil, replaces the warm-up phase with a
	// restore: the platform is rebuilt cold (no Warm installs), the
	// image is overlaid onto it, every stream is fast-forwarded past
	// the image's recorded warm-up, and the measured phase proceeds
	// exactly as if the warm-up had just run live. The scenario's
	// platform, geometry and tenants must match the ones the image was
	// saved from.
	Checkpoint *checkpoint.Image
	// Sample gates statistics collection of the measured phase to
	// SMARTS-style observed windows (simulation stays exact; only
	// histogram feeding is gated). The zero Sampler disables sampling.
	// Sampled percentiles land in Result.Sampled next to the full ones.
	Sample checkpoint.Sampler
}

// PolicyChange is one scheduled reprogramming of a scenario's class:
// at simulated time At, class Class's way mask becomes Mask (0 =
// full) and its bandwidth cap MBps (0 = unthrottled). The mask change
// takes effect at the next victim selection — resident pages in
// now-forbidden ways stay hittable, in-flight fills complete — and
// the throttle re-bases without forgiving accrued debt.
type PolicyChange struct {
	At    sim.Time
	Class string
	Mask  uint64
	MBps  float64
}

// Options tunes synthetic tenant stream generation (trace-backed
// tenants replay exactly what was recorded and ignore both fields).
type Options struct {
	// Scale multiplies Table III instruction counts; 0 keeps the
	// workload package default.
	Scale float64
	// Seed is the base stream seed (Tenant.Seed overrides per tenant).
	Seed int64
}

func (o Options) workloadOptions() workload.Options {
	w := workload.DefaultOptions()
	if o.Scale > 0 {
		w.Scale = o.Scale
	}
	w.Seed = o.Seed
	return w
}

// TenantStats is one tenant's share of a scenario run.
type TenantStats struct {
	Name     string
	Threads  int
	Units    int64 // completed work items (steps for traces = pages/ops)
	Accesses int64 // memory accesses issued past the core's own step
	// Latency percentiles over the tenant's end-to-end access
	// latencies (address translation + cache hierarchy + memory
	// system), in simulated time.
	Mean, P50, P95, P99, Max sim.Time
	// Class is the tenant's CLOS name and QoS its class's MBM-style
	// counter block (zero value when the scenario has no QoS table, or
	// the platform has no MoS controller to monitor). Tenants sharing
	// a class report the same shared block.
	Class string
	QoS   qos.ClassStats
}

// Result is one scenario run.
type Result struct {
	Scenario string
	Platform string
	CPU      cpu.Stats
	Energy   energy.Breakdown
	Tenants  []TenantStats
	Units    int64
	// QoS holds the per-class monitoring counters in CLOS order (nil
	// without a QoS table or on platforms without a MoS controller).
	QoS []qos.ClassStats
	// QoSReconfigs counts runtime class reprogrammings applied during
	// the run (timeline changes + feedback-controller actions).
	QoSReconfigs int64
	// QoSFinal is the class table as it stood at the end of the run
	// (masks keep the 0 = full convention); nil without dynamic QoS
	// exposure.
	QoSFinal []qos.Class
	// Sampled holds per-tenant latency percentiles measured only over
	// accesses issued inside the scenario sampler's observed windows
	// (nil unless Scenario.Sample is enabled). Comparing these against
	// Tenants pins the sampling error.
	Sampled []SampledTenant
}

// SampledTenant is one tenant's interval-sampled measurement.
type SampledTenant struct {
	Name                     string
	Accesses                 int64
	Mean, P50, P95, P99, Max sim.Time
}

// UnitsPerSec returns aggregate work items per second of simulated time.
func (r Result) UnitsPerSec() float64 {
	secs := r.CPU.Elapsed.Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(r.Units) / secs
}

// RecordWorkload records a Table III workload into a v2 container:
// one tenant label (the workload name) per thread, plus the spec's
// warm regions — everything a later Run needs to reproduce the live
// run bit-for-bit. thread selects a single 0-based stream; pass
// AllThreads for the whole workload. It returns the number of steps
// recorded. All recorders (hamstrace, the replay bench target, tests)
// go through here so what travels with a trace is defined once.
func RecordWorkload(w io.Writer, wlName string, wo workload.Options, thread int) (int64, error) {
	spec, err := workload.ByName(wlName)
	if err != nil {
		return 0, err
	}
	streams := spec.Streams(wo)
	if thread != AllThreads {
		if thread < 0 || thread >= len(streams) {
			return 0, fmt.Errorf("replay: thread %d out of range [0, %d)", thread, len(streams))
		}
		streams = streams[thread : thread+1]
	}
	labels := make([]string, len(streams))
	for i := range labels {
		labels[i] = spec.Name
	}
	var warm []trace.Region
	for _, r := range spec.HotRegions(wo) {
		warm = append(warm, trace.Region{Base: r.Base, Size: r.Size})
	}
	return trace.RecordAll(w, spec.Name, labels, warm, streams)
}

// AllThreads selects every stream of a workload in RecordWorkload.
const AllThreads = -1

// FromFile converts a decoded trace into scenario tenants, one per
// distinct thread label, so a multi-tenant recording replays with its
// per-tenant breakdowns intact. Single-label files (and files mixing
// labeled and unlabeled threads, which cannot be split unambiguously)
// become one tenant covering every thread.
func FromFile(f *trace.File) []Tenant {
	labels := f.Labels()
	split := len(labels) > 1
	for _, l := range labels {
		if l == "" {
			split = false
		}
	}
	if !split {
		name := f.Name
		if name == "" {
			name = "trace"
		}
		return []Tenant{{Name: name, Trace: f}}
	}
	out := make([]Tenant, len(labels))
	for i, l := range labels {
		out[i] = Tenant{Name: l, Trace: f, TraceLabel: l}
	}
	return out
}

// offsetStream shifts every address a stream issues by a fixed base,
// relocating a tenant's footprint inside the MoS space. It relocates
// into its own reused buffer and never writes into the inner step: a
// decoded trace's steps are shared by every run of its File. Progress
// forwards to the inner stream.
type offsetStream struct {
	inner cpu.Stream
	base  uint64
	buf   []mem.Access
}

func (s *offsetStream) Next() (cpu.Step, bool) {
	step, ok := s.inner.Next()
	if !ok || len(step.Acc) == 0 {
		return step, ok
	}
	s.buf = s.buf[:0]
	for _, a := range step.Acc {
		a.Addr += s.base
		s.buf = append(s.buf, a)
	}
	step.Acc = s.buf
	return step, ok
}

// Units forwards workload progress through the offset wrapper.
func (s *offsetStream) Units() int64 {
	if p, ok := s.inner.(workload.Progress); ok {
		return p.Units()
	}
	return 0
}

// streams materializes the tenant's streams and warm regions.
func (t Tenant) streams(o Options) ([]cpu.Stream, []trace.Region, error) {
	ss, warm, err := t.rawStreams(o)
	if err != nil {
		return nil, nil, err
	}
	if t.Base != 0 {
		shifted := make([]cpu.Stream, len(ss))
		for i, s := range ss {
			shifted[i] = &offsetStream{inner: s, base: t.Base}
		}
		ss = shifted
		moved := make([]trace.Region, len(warm))
		for i, r := range warm {
			moved[i] = trace.Region{Base: r.Base + t.Base, Size: r.Size}
		}
		warm = moved
	}
	return ss, warm, nil
}

func (t Tenant) rawStreams(o Options) ([]cpu.Stream, []trace.Region, error) {
	if t.Trace != nil {
		ss := t.Trace.StreamsFor(t.TraceLabel)
		if len(ss) == 0 {
			return nil, nil, fmt.Errorf("replay: tenant %q: no threads with label %q", t.Name, t.TraceLabel)
		}
		return ss, t.Trace.Warm, nil
	}
	spec, err := workload.ByName(t.Workload)
	if err != nil {
		return nil, nil, fmt.Errorf("replay: tenant %q: %w", t.Name, err)
	}
	wo := o.workloadOptions()
	if t.Seed != 0 {
		wo.Seed = t.Seed
	}
	if t.Scale > 0 {
		wo.Scale = t.Scale
	}
	if t.Hot != 0 {
		wo.HotBytes = t.Hot
	}
	if t.HotFrac > 0 {
		wo.HotFraction = t.HotFrac
	}
	if t.Dataset != 0 {
		wo.DatasetBytes = t.Dataset
	}
	var warm []trace.Region
	for _, r := range spec.HotRegions(wo) {
		warm = append(warm, trace.Region{Base: r.Base, Size: r.Size})
	}
	return spec.Streams(wo), warm, nil
}

// classWarmer is the optional platform capability of warming a range
// on behalf of a QoS class (the HAMS variants implement it).
type classWarmer interface {
	WarmClass(base, size uint64, cls qos.ClassID)
}

// qosExposer reaches the MoS controller for its monitoring counters.
type qosExposer interface{ Controller() *core.Controller }

// resolveClasses maps each tenant to its CLOS ID. Without a QoS table
// every tenant must be on the default class (a named class with no
// table is a configuration error, not a silent fallback).
func resolveClasses(sc Scenario) ([]qos.ClassID, error) {
	out := make([]qos.ClassID, len(sc.Tenants))
	for i, t := range sc.Tenants {
		if t.Class == "" {
			continue
		}
		if sc.QoS == nil {
			return nil, fmt.Errorf("replay: tenant %q names class %q but scenario %q has no QoS table",
				t.Name, t.Class, sc.Name)
		}
		id, ok := sc.QoS.ByName(t.Class)
		if !ok {
			return nil, fmt.Errorf("replay: tenant %q: unknown QoS class %q", t.Name, t.Class)
		}
		out[i] = id
	}
	return out, nil
}

// limitStream caps a stream at a fixed number of leading steps — the
// warm-up phase drives the real stream objects through it, so the
// measured phase continues them from exactly step N+1.
type limitStream struct {
	inner cpu.Stream
	left  int64
}

func (s *limitStream) Next() (cpu.Step, bool) {
	if s.left <= 0 {
		return cpu.Step{}, false
	}
	s.left--
	return s.inner.Next()
}

// Run executes a scenario. Warm regions of every tenant are installed
// first (warming is untimed and idempotent; with a QoS table each
// tenant warms inside its own way partition), then all tenant threads
// run concurrently on one runner; per-access latencies are folded into
// per-tenant histograms via the runner's observer hook. With Warmup or
// Checkpoint set, only the measured phase is reported.
func Run(sc Scenario, o Options) (Result, error) {
	res, _, err := run(sc, o, false)
	return res, err
}

// Warmup executes only the scenario's warm-up phase (Scenario.Warmup
// must be positive and Checkpoint unset) and captures the quiesced
// platform into a checkpoint image. N scenarios restored from the one
// image reproduce N live phase-split runs bit-for-bit while paying the
// warm-up cost once.
func Warmup(sc Scenario, o Options) (*checkpoint.Image, error) {
	if sc.Warmup <= 0 {
		return nil, fmt.Errorf("replay: scenario %q: Warmup requires a positive warm-up length", sc.Name)
	}
	if sc.Checkpoint != nil {
		return nil, fmt.Errorf("replay: scenario %q: cannot warm up from a checkpoint", sc.Name)
	}
	_, img, err := run(sc, o, true)
	return img, err
}

func run(sc Scenario, o Options, saveOnly bool) (Result, *checkpoint.Image, error) {
	if len(sc.Tenants) == 0 {
		return Result{}, nil, fmt.Errorf("replay: scenario %q has no tenants", sc.Name)
	}
	// Tenant names key per-tenant seeds, latency buckets and report
	// columns: a duplicate would silently merge two tenants into one
	// stats bucket, so reject it up front.
	names := make(map[string]bool, len(sc.Tenants))
	for _, t := range sc.Tenants {
		if names[t.Name] {
			return Result{}, nil, fmt.Errorf("replay: scenario %q has two tenants named %q", sc.Name, t.Name)
		}
		names[t.Name] = true
	}
	warmupSteps := sc.Warmup
	if warmupSteps < 0 {
		return Result{}, nil, fmt.Errorf("replay: scenario %q: negative warm-up %d", sc.Name, warmupSteps)
	}
	if sc.Checkpoint != nil {
		// The image records how much warm-up produced it; the scenario
		// may restate the same figure but must not contradict it.
		if warmupSteps != 0 && warmupSteps != sc.Checkpoint.Warmup {
			return Result{}, nil, fmt.Errorf("replay: scenario %q sets warm-up %d but its checkpoint recorded %d",
				sc.Name, warmupSteps, sc.Checkpoint.Warmup)
		}
		warmupSteps = sc.Checkpoint.Warmup
	}
	if sc.Sample.Measure < 0 || sc.Sample.Skip < 0 {
		return Result{}, nil, fmt.Errorf("replay: scenario %q: negative sampling window", sc.Name)
	}
	classes, err := resolveClasses(sc)
	if err != nil {
		return Result{}, nil, err
	}
	popt := sc.PlatOpts
	if sc.QoS != nil {
		popt.HAMSQoS = sc.QoS
	}
	ways := sc.PlatOpts.HAMSWays
	if ways <= 0 {
		ways = 1
	}
	if len(sc.Policy) > 0 {
		if sc.QoS == nil {
			return Result{}, nil, fmt.Errorf("replay: scenario %q schedules policy changes but has no QoS table", sc.Name)
		}
		timeline := make([]qos.TimedChange, len(sc.Policy))
		for i, ch := range sc.Policy {
			id, ok := sc.QoS.ByName(ch.Class)
			if !ok {
				return Result{}, nil, fmt.Errorf("replay: scenario %q: policy change %d: unknown QoS class %q", sc.Name, i, ch.Class)
			}
			timeline[i] = qos.TimedChange{At: ch.At, Class: id, Mask: ch.Mask, MBps: ch.MBps}
		}
		if err := qos.ValidateSchedule(timeline, sc.QoS.Len(), ways); err != nil {
			return Result{}, nil, fmt.Errorf("replay: scenario %q: %w", sc.Name, err)
		}
		popt.HAMSQoSPolicy = timeline
	}
	var ctl *qos.Controller
	if sc.SLO != nil {
		if sc.QoS == nil {
			return Result{}, nil, fmt.Errorf("replay: scenario %q sets an SLO but has no QoS table", sc.Name)
		}
		ctl, err = qos.NewController(*sc.SLO, sc.QoS, ways)
		if err != nil {
			return Result{}, nil, fmt.Errorf("replay: scenario %q: %w", sc.Name, err)
		}
		popt.HAMSQoSController = ctl
	}
	plat, err := platform.New(sc.Platform, popt)
	if err != nil {
		return Result{}, nil, fmt.Errorf("replay: scenario %q: %w", sc.Name, err)
	}
	cw, _ := plat.(classWarmer)
	res := Result{Scenario: sc.Name, Platform: sc.Platform, Tenants: make([]TenantStats, len(sc.Tenants))}
	var streams []cpu.Stream
	var coreTenant []int
	var coreClass []uint8
	tenantStreams := make([][]cpu.Stream, len(sc.Tenants))
	for ti, t := range sc.Tenants {
		ss, warm, err := t.streams(o)
		if err != nil {
			return Result{}, nil, err
		}
		// A restored platform already holds the warmed state the live
		// run installed before its warm-up phase; re-warming would
		// perturb the image's replacement-policy state.
		if sc.Checkpoint == nil {
			for _, rgn := range warm {
				if sc.QoS != nil && cw != nil {
					cw.WarmClass(rgn.Base, rgn.Size, classes[ti])
				} else {
					plat.Warm(rgn.Base, rgn.Size)
				}
			}
		}
		res.Tenants[ti].Name = t.Name
		res.Tenants[ti].Class = t.Class
		res.Tenants[ti].Threads = len(ss)
		tenantStreams[ti] = ss
		for range ss {
			coreTenant = append(coreTenant, ti)
			coreClass = append(coreClass, classes[ti])
		}
		streams = append(streams, ss...)
	}

	ccfg := cpu.DefaultConfig()
	// Every tenant thread gets a core; scenarios below the default core
	// count keep it, so replaying a single recorded workload uses the
	// exact configuration its live run did.
	if len(streams) > ccfg.Cores {
		ccfg.Cores = len(streams)
	}
	if pg := platform.MappingPage(sc.Platform, sc.PlatOpts); pg != 0 {
		ccfg.TLB.PageBytes = pg
	}

	// Phase boundary: t0 is the simulated instant the measured phase
	// begins — 0 for a single-phase run, the quiesced warm-up horizon
	// otherwise. Both the live and the restored path land on the same
	// t0 with the same platform and stream state (the determinism the
	// fan-out tests pin).
	var t0 sim.Time
	if sc.Checkpoint != nil {
		if err := platform.Restore(plat, sc.Checkpoint); err != nil {
			return Result{}, nil, fmt.Errorf("replay: scenario %q: %w", sc.Name, err)
		}
		// Fast-forward every stream past the warm-up the image already
		// executed: the generators land in the exact state the live
		// warm-up left them in.
		for _, s := range streams {
			for i := int64(0); i < warmupSteps; i++ {
				if _, ok := s.Next(); !ok {
					break
				}
			}
		}
		t0 = sim.Time(sc.Checkpoint.SimTime)
	} else if warmupSteps > 0 {
		wrunner := cpu.NewRunner(ccfg, plat)
		if sc.QoS != nil {
			wrunner.SetClasses(coreClass)
		}
		// The warm-up phase feeds only the SLO controller (its state at
		// the boundary is part of the platform state a checkpoint
		// carries); histograms see measured accesses only.
		if ctl != nil {
			wrunner.Observe(func(core int, a mem.Access, issue, done sim.Time) {
				ctl.Observe(coreClass[core], done-issue)
			})
		}
		limited := make([]cpu.Stream, len(streams))
		for i, s := range streams {
			limited[i] = &limitStream{inner: s, left: warmupSteps}
		}
		wst, err := wrunner.Run(limited)
		if err != nil {
			return Result{}, nil, fmt.Errorf("replay: scenario %q warm-up on %s: %w", sc.Name, sc.Platform, err)
		}
		t0 = wst.Elapsed
		if qe, ok := plat.(qosExposer); ok {
			mos := qe.Controller()
			if err := mos.Quiesce(); err != nil {
				return Result{}, nil, fmt.Errorf("replay: scenario %q warm-up: %w", sc.Name, err)
			}
			// The platform clock and the slowest core's horizon meet at
			// t0, so a saved image and the continuing live run agree on
			// when the measured phase starts.
			if now := mos.Now(); now > t0 {
				t0 = now
			}
			mos.AdvanceTo(t0)
		}
	}
	if saveOnly {
		img, err := platform.Save(plat, warmupSteps)
		if err != nil {
			return Result{}, nil, fmt.Errorf("replay: scenario %q: %w", sc.Name, err)
		}
		return Result{}, img, nil
	}

	// The warm-up's work counts are not the measured phase's: capture
	// the boundary and subtract. The restored path recomputes the same
	// boundary from its fast-forwarded generators.
	warmUnits := make([]int64, len(sc.Tenants))
	for ti := range sc.Tenants {
		for _, s := range tenantStreams[ti] {
			if p, ok := s.(workload.Progress); ok {
				warmUnits[ti] += p.Units()
			}
		}
	}

	hists := make([]*stats.Histogram, len(sc.Tenants))
	for i := range hists {
		hists[i] = stats.NewHistogram()
	}
	var shists []*stats.Histogram
	if sc.Sample.Enabled() {
		shists = make([]*stats.Histogram, len(sc.Tenants))
		for i := range shists {
			shists[i] = stats.NewHistogram()
		}
	}
	runner := cpu.NewRunner(ccfg, plat)
	runner.SetStart(t0)
	if sc.QoS != nil {
		runner.SetClasses(coreClass)
	}
	runner.Observe(func(core int, a mem.Access, issue, done sim.Time) {
		hists[coreTenant[core]].Add(done - issue)
		if shists != nil && sc.Sample.Sampled(int64(issue-t0)) {
			shists[coreTenant[core]].Add(done - issue)
		}
		// The SLO controller samples the same single-threaded
		// completion stream the histograms do, so its rolling p99 —
		// and therefore its reprogramming trajectory — is a pure
		// function of simulated time (replay ≡ live).
		if ctl != nil {
			ctl.Observe(coreClass[core], done-issue)
		}
	})
	st, err := runner.Run(streams)
	if err != nil {
		return Result{}, nil, fmt.Errorf("replay: scenario %q on %s: %w", sc.Name, sc.Platform, err)
	}
	res.CPU = st
	if sc.QoS != nil {
		if qe, ok := plat.(qosExposer); ok {
			res.QoS = qe.Controller().QoSStats()
			res.QoSReconfigs = qe.Controller().QoSReconfigs()
			res.QoSFinal = qe.Controller().QoSCurrent()
		}
	}
	for ti := range sc.Tenants {
		for _, s := range tenantStreams[ti] {
			if p, ok := s.(workload.Progress); ok {
				res.Tenants[ti].Units += p.Units()
			}
		}
		res.Tenants[ti].Units -= warmUnits[ti]
		res.Units += res.Tenants[ti].Units
		h := hists[ti]
		res.Tenants[ti].Accesses = h.Count()
		res.Tenants[ti].Mean = h.Mean()
		res.Tenants[ti].P50 = h.Percentile(50)
		res.Tenants[ti].P95 = h.Percentile(95)
		res.Tenants[ti].P99 = h.Percentile(99)
		res.Tenants[ti].Max = h.Max()
		if int(classes[ti]) < len(res.QoS) {
			res.Tenants[ti].QoS = res.QoS[classes[ti]]
		}
	}
	if shists != nil {
		res.Sampled = make([]SampledTenant, len(sc.Tenants))
		for ti, h := range shists {
			res.Sampled[ti] = SampledTenant{
				Name:     sc.Tenants[ti].Name,
				Accesses: h.Count(),
				Mean:     h.Mean(),
				P50:      h.Percentile(50),
				P95:      h.Percentile(95),
				P99:      h.Percentile(99),
				Max:      h.Max(),
			}
		}
	}
	in := plat.EnergyInputs()
	in.Elapsed = st.Elapsed
	in.Cores = ccfg.Cores
	in.CPUBusy = busyTime(ccfg, st)
	res.Energy = energy.Compute(energy.DefaultParams(), in)
	return res, nil, nil
}

// busyTime mirrors the live harness's core-activity estimate (compute
// plus cache-access time; memory-system stalls count as idle) so a
// replayed run's energy matches its live run exactly.
func busyTime(cfg cpu.Config, st cpu.Stats) sim.Time {
	cache := sim.Time(st.L1Hits+st.L1Misses)*cfg.L1Lat +
		sim.Time(st.L2Hits+st.L2Misses)*cfg.L2Lat
	return st.ComputeTime + cache
}
