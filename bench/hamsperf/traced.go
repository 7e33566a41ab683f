package main

import (
	"fmt"
	"slices"
	"time"

	"hams/internal/core"
	"hams/internal/cpu"
	"hams/internal/mem"
	"hams/internal/platform"
	"hams/internal/qos"
	"hams/internal/replay"
	"hams/internal/sim"
	"hams/internal/stats"
	"hams/internal/workload"
)

// tracer collects the traced rep's host spans, its memory-system call
// latencies (hits in total, misses one by one) and the simulated
// counters of every platform it built. A nil tracer records nothing,
// so untraced set-ups and reps share the traced mirror's path.
type tracer struct {
	spans    map[string]time.Duration
	calls    int64
	hits     int64
	hitTotal time.Duration
	missNS   []int64
	sim      simCounters
	values   map[string]float64 // per-layer values set directly
}

func newTracer() *tracer {
	return &tracer{spans: map[string]time.Duration{}, values: map[string]float64{}}
}

// span adds the time since t0 to the named span.
func (tr *tracer) span(name string, t0 time.Time) {
	if tr != nil {
		tr.spans[name] += time.Since(t0)
	}
}

// access records one timed memory-system call.
func (tr *tracer) access(d time.Duration, hit, known bool) {
	tr.spans["platform.access"] += d
	tr.calls++
	if !known {
		return
	}
	if hit {
		tr.hits++
		tr.hitTotal += d
	} else {
		tr.missNS = append(tr.missNS, int64(d))
	}
}

// timedMem wraps the platform the runner drives. For a HAMS platform
// it splits call latency into hits and misses by the controller's hit
// counter, which moves by exactly one on a hit.
type timedMem struct {
	inner cpu.MemSystem
	ctl   *core.Controller
	tr    *tracer
}

func (m *timedMem) Access(t sim.Time, a mem.Access) (cpu.MemResult, error) {
	var hits int64
	if m.ctl != nil {
		hits = m.ctl.Stats().Hits
	}
	t0 := time.Now()
	r, err := m.inner.Access(t, a)
	d := time.Since(t0)
	m.tr.access(d, m.ctl != nil && m.ctl.Stats().Hits > hits, m.ctl != nil)
	return r, err
}

// timedStream times Next and forwards workload progress.
type timedStream struct {
	inner cpu.Stream
	tr    *tracer
}

func (s *timedStream) Next() (cpu.Step, bool) {
	t0 := time.Now()
	step, ok := s.inner.Next()
	s.tr.spans["workload.next"] += time.Since(t0)
	return step, ok
}

func (s *timedStream) Units() int64 { return units(s.inner) }

// offsetStream relocates a tenant's addresses by its Base, as replay
// does for disjoint tenant footprints.
type offsetStream struct {
	inner cpu.Stream
	base  uint64
}

func (s *offsetStream) Next() (cpu.Step, bool) {
	step, ok := s.inner.Next()
	if !ok || len(step.Acc) == 0 {
		return step, ok
	}
	acc := make([]mem.Access, len(step.Acc))
	for i, a := range step.Acc {
		a.Addr += s.base
		acc[i] = a
	}
	step.Acc = acc
	return step, ok
}

func (s *offsetStream) Units() int64 { return units(s.inner) }

func units(s cpu.Stream) int64 {
	if p, ok := s.(workload.Progress); ok {
		return p.Units()
	}
	return 0
}

// controllerOf reaches the MoS controller of a HAMS platform.
func controllerOf(p platform.Platform) *core.Controller {
	if h, ok := p.(interface{ Controller() *core.Controller }); ok {
		return h.Controller()
	}
	return nil
}

// cellSim is the simulated outcome of one scenario run that reps,
// traced runs and replay.Run must agree on exactly.
type cellSim struct {
	CPU     cpu.Stats
	Units   int64
	Tenants []tenantSim
}

type tenantSim struct {
	Name                     string
	Units, Accesses          int64
	Mean, P50, P95, P99, Max sim.Time
}

// simOf projects a replay result onto cellSim.
func simOf(r replay.Result) cellSim {
	c := cellSim{CPU: r.CPU, Units: r.Units}
	for _, t := range r.Tenants {
		c.Tenants = append(c.Tenants, tenantSim{t.Name, t.Units, t.Accesses, t.Mean, t.P50, t.P95, t.P99, t.Max})
	}
	return c
}

// prepared is a scenario built up to the point its runner starts.
type prepared struct {
	sc            replay.Scenario
	plat          platform.Platform
	streams       []cpu.Stream
	tenantStreams [][]cpu.Stream
	coreTenant    []int
	coreClass     []uint8
	ccfg          cpu.Config
	t0            sim.Time
}

// prepare mirrors the part of replay.Run before its runner starts, for
// the scenario shapes this benchmark uses: synthetic tenants, an
// optional QoS table and an optional checkpoint (no live warm-up
// phase, policy timeline, SLO controller or sampler). With a tracer it
// times each public call and wraps every stream.
func prepare(sc replay.Scenario, o replay.Options, tr *tracer) (*prepared, error) {
	if sc.Warmup != 0 && sc.Checkpoint == nil || len(sc.Policy) > 0 || sc.SLO != nil || sc.Sample.Enabled() {
		return nil, fmt.Errorf("replay mirror: scenario %q uses a replay feature it does not mirror", sc.Name)
	}
	p := &prepared{sc: sc}
	classes := make([]qos.ClassID, len(sc.Tenants))
	for i, t := range sc.Tenants {
		if t.Class == "" {
			continue
		}
		id, ok := sc.QoS.ByName(t.Class)
		if !ok {
			return nil, fmt.Errorf("replay mirror: tenant %q: unknown class %q", t.Name, t.Class)
		}
		classes[i] = id
	}
	popt := sc.PlatOpts
	if sc.QoS != nil {
		popt.HAMSQoS = sc.QoS
	}
	t0 := time.Now()
	plat, err := platform.New(sc.Platform, popt)
	tr.span("platform.new", t0)
	if err != nil {
		return nil, err
	}
	p.plat = plat
	cw, _ := plat.(interface {
		WarmClass(base, size uint64, cls qos.ClassID)
	})
	for ti, t := range sc.Tenants {
		t0 = time.Now()
		ss, warm, err := tenantStreams(t, o)
		tr.span("workload.build", t0)
		if err != nil {
			return nil, err
		}
		if sc.Checkpoint == nil {
			t0 = time.Now()
			for _, r := range warm {
				if sc.QoS != nil && cw != nil {
					cw.WarmClass(r.Base, r.Size, classes[ti])
				} else {
					plat.Warm(r.Base, r.Size)
				}
			}
			tr.span("platform.warm", t0)
		}
		if tr != nil {
			for i, s := range ss {
				ss[i] = &timedStream{inner: s, tr: tr}
			}
		}
		p.tenantStreams = append(p.tenantStreams, ss)
		for range ss {
			p.coreTenant = append(p.coreTenant, ti)
			p.coreClass = append(p.coreClass, uint8(classes[ti]))
		}
		p.streams = append(p.streams, ss...)
	}
	p.ccfg = cpu.DefaultConfig()
	if len(p.streams) > p.ccfg.Cores {
		p.ccfg.Cores = len(p.streams)
	}
	if pg := platform.MappingPage(sc.Platform, sc.PlatOpts); pg != 0 {
		p.ccfg.TLB.PageBytes = pg
	}
	if img := sc.Checkpoint; img != nil {
		t0 = time.Now()
		err := platform.Restore(plat, img)
		tr.span("platform.restore", t0)
		if err != nil {
			return nil, err
		}
		for _, s := range p.streams {
			for i := int64(0); i < img.Warmup; i++ {
				if _, ok := s.Next(); !ok {
					break
				}
			}
		}
		p.t0 = sim.Time(img.SimTime)
	}
	return p, nil
}

// tenantStreams builds a synthetic tenant's streams and warm regions
// the way replay does: workload defaults, then the scenario seed, then
// the tenant's overrides.
func tenantStreams(t replay.Tenant, o replay.Options) ([]cpu.Stream, []workload.Region, error) {
	spec, err := workload.ByName(t.Workload)
	if err != nil {
		return nil, nil, err
	}
	wo := workload.DefaultOptions()
	if o.Scale > 0 {
		wo.Scale = o.Scale
	}
	wo.Seed = o.Seed
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
	ss, warm := spec.Streams(wo), spec.HotRegions(wo)
	if t.Base != 0 {
		for i, s := range ss {
			ss[i] = &offsetStream{inner: s, base: t.Base}
		}
		for i := range warm {
			warm[i].Base += t.Base
		}
	}
	return ss, warm, nil
}

// run drives the prepared scenario through a runner and returns its
// simulated outcome. With a tracer the runner's memory system is timed,
// and the platform's counters go to the tracer.
func (p *prepared) run(tr *tracer) (cellSim, error) {
	ctl := controllerOf(p.plat)
	var ms cpu.MemSystem = p.plat
	if tr != nil {
		ms = &timedMem{inner: p.plat, ctl: ctl, tr: tr}
	}
	runner := cpu.NewRunner(p.ccfg, ms)
	runner.SetStart(p.t0)
	if p.sc.QoS != nil {
		runner.SetClasses(p.coreClass)
	}
	warmUnits := make([]int64, len(p.tenantStreams))
	for ti, ss := range p.tenantStreams {
		for _, s := range ss {
			warmUnits[ti] += units(s)
		}
	}
	hists := make([]*stats.Histogram, len(p.tenantStreams))
	for i := range hists {
		hists[i] = stats.NewHistogram()
	}
	runner.Observe(func(core int, a mem.Access, issue, done sim.Time) {
		hists[p.coreTenant[core]].Add(done - issue)
	})
	var access, next time.Duration
	if tr != nil {
		access, next = tr.spans["platform.access"], tr.spans["workload.next"]
	}
	t0 := time.Now()
	st, err := runner.Run(p.streams)
	if tr != nil {
		wall := time.Since(t0)
		tr.spans["cpu.self"] += wall - (tr.spans["platform.access"] - access) - (tr.spans["workload.next"] - next)
	}
	if err != nil {
		return cellSim{}, err
	}
	out := cellSim{CPU: st}
	for ti, ss := range p.tenantStreams {
		ts := tenantSim{Name: p.sc.Tenants[ti].Name, Units: -warmUnits[ti]}
		for _, s := range ss {
			ts.Units += units(s)
		}
		h := hists[ti]
		ts.Accesses, ts.Mean, ts.Max = h.Count(), h.Mean(), h.Max()
		ts.P50, ts.P95, ts.P99 = h.Percentile(50), h.Percentile(95), h.Percentile(99)
		out.Units += ts.Units
		out.Tenants = append(out.Tenants, ts)
	}
	if tr == nil {
		return out, nil
	}
	tr.sim.addPlatform(p.plat, st, p.ccfg, p.t0)
	// The QoS counters of colocation's two classes.
	if ctl != nil && p.sc.QoS != nil {
		for _, cs := range ctl.QoSStats() {
			switch cs.Name {
			case "latency":
				tr.values["qos.latency.occupancy_pages"] += float64(cs.Occupancy)
			case "stream":
				tr.values["qos.stream.throttle_ns"] += float64(cs.ThrottleNS)
				tr.values["qos.stream.fill_mbps"] += cs.FillMBps(st.Elapsed)
			}
		}
	}
	return out, nil
}

// tracedCell prepares and runs one scenario under the tracer.
func tracedCell(sc replay.Scenario, o replay.Options, tr *tracer) (cellSim, error) {
	p, err := prepare(sc, o, tr)
	if err != nil {
		return cellSim{}, err
	}
	return p.run(tr)
}

// finish turns the tracer into per-layer values for a traced rep that
// took wall. A span is reported as its share of wall, so a layer the
// rep did not reach reads 0 and no host time is constant; its seconds
// go to the results file under the span's name plus "_s".
func (tr *tracer) finish(wall time.Duration) map[string]float64 {
	out := map[string]float64{}
	for k, v := range tr.values {
		out[k] = v
	}
	for k, d := range tr.spans {
		out[k+".share"] = d.Seconds() / wall.Seconds()
		out[k+"_s"] = d.Seconds()
	}
	out["trace.wall_s"] = wall.Seconds()
	out["platform.access_calls"] = float64(tr.calls)
	slices.Sort(tr.missNS)
	out["core.hit_host_ns_mean"] = ratio(float64(tr.hitTotal), float64(tr.hits))
	out["core.miss_host_ns_p50"] = nsQuantile(tr.missNS, 0.5)
	out["core.miss_host_ns_p99"] = nsQuantile(tr.missNS, 0.99)
	tr.sim.fill(out)
	return out
}

// nsQuantile is the nearest-rank quantile of sorted nanoseconds.
func nsQuantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[rank(q, len(sorted))-1])
}
