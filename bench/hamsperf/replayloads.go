package main

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	"hams/internal/checkpoint"
	"hams/internal/mem"
	"hams/internal/platform"
	"hams/internal/qos"
	"hams/internal/replay"
	"hams/internal/runner"
	"hams/internal/workload"
)

// cell is one scenario a replay workload runs.
type cell struct {
	sc replay.Scenario
	o  replay.Options
}

// replayLoad runs replay cells back to back. Each cell is set up, by
// building its platform, warm state and streams (the part of
// replay.Run before its runner starts), and then run; the cell's time
// is the run alone. A cell is set up just before it runs, so only one
// cell's platform is held at a time. The first rep also runs every
// cell through replay.Run, which the benchmark's mirror of it must
// match exactly.
type replayLoad struct {
	cells []cell
	// p99Of names the tenant whose p99 sim_p99_ns reports.
	p99Of   string
	checked bool
}

func (w *replayLoad) rep(tr *tracer) (repOut, error) {
	var out repOut
	sims := make([]cellSim, len(w.cells))
	for i, c := range w.cells {
		t0 := time.Now()
		p, err := prepare(c.sc, c.o, tr)
		out.setup += time.Since(t0)
		if err != nil {
			return out, err
		}
		t0 = time.Now()
		s, err := p.run(tr)
		out.cells = append(out.cells, time.Since(t0))
		if err != nil {
			return out, err
		}
		sims[i] = s
		out.accesses += s.CPU.MemAccesses
	}
	if !w.checked {
		w.checked = true
		for i, c := range w.cells {
			// The reference run starts from a collected heap, like a
			// rep, so it adds nothing to peak RSS that a rep does not.
			runtime.GC()
			r, err := replay.Run(c.sc, c.o)
			if err != nil {
				return out, err
			}
			out.check(reflect.DeepEqual(simOf(r), sims[i]), "cell %s: the benchmark's mirror differs from replay.Run", c.sc.Name)
		}
	}
	out.sim = sims
	out.simRate, out.simP99 = simFigures(sims, w.p99Of)
	return out, nil
}

// simFigures returns the simulated end-to-end figures of a rep's cells:
// work units per simulated second and the named tenant's p99 (the only
// tenant's when name is empty), each a geometric mean over cells.
func simFigures(sims []cellSim, name string) (unitsPerS, p99 float64) {
	var lu, lp float64
	for _, s := range sims {
		lu += math.Log(float64(s.Units) / s.CPU.Elapsed.Seconds())
		for _, t := range s.Tenants {
			if name == "" || t.Name == name {
				lp += math.Log(float64(t.P99))
			}
		}
	}
	n := float64(len(sims))
	return math.Exp(lu / n), math.Exp(lp / n)
}

// newColocation is the qos target's cat+mba co-location: a BFS service
// whose working set fits its 6-way partition beside a sequential-write
// streamer held to 100 MB/s, on an 8-way hams-LE cache over a 64 MiB
// NVDIMM. A rep is this one cell.
func newColocation(seed int64, tiny bool) load {
	victim, stream := 1e-5, 1e-4
	if tiny {
		victim, stream = 5e-7, 5e-6
	}
	return &replayLoad{p99Of: "latency", cells: []cell{{
		sc: replay.Scenario{
			Name:     "stream+latency",
			Platform: "hams-LE",
			PlatOpts: platform.Options{HAMSWays: 8, HAMSNVDIMM: 64 * mem.MiB},
			Tenants: []replay.Tenant{
				{Name: "latency", Workload: "BFS", Class: "latency", Seed: runner.DeriveSeed(seed, "latency"),
					Scale: victim, Hot: 4 * mem.MiB, HotFrac: 1},
				{Name: "stream", Workload: "seqWr", Class: "stream", Seed: runner.DeriveSeed(seed, "stream"),
					Scale: stream, Base: 64 * mem.GiB},
			},
			QoS: &qos.Table{Classes: []qos.Class{
				{Name: "latency", WayMask: 0xfc},
				{Name: "stream", WayMask: 0x03, MBps: 100},
			}},
		},
		o: replay.Options{Seed: seed},
	}}}
}

// newPlatformSweep is the Fig. 16 grid: every platform.Names() platform
// under every Table III workload, one single-tenant cell each, at scale
// 2e-7.
func newPlatformSweep(seed int64, tiny bool) load {
	plats, wls, scale := platform.Names(), workload.Names(), 2e-7
	if tiny {
		plats, wls, scale = []string{"mmap", "hams-TE", "oracle"}, []string{"rndRd", "BFS"}, 2e-8
	}
	var w replayLoad
	for _, wl := range wls {
		for _, p := range plats {
			w.cells = append(w.cells, cell{
				sc: replay.Scenario{
					Name:     wl + "@" + p,
					Platform: p,
					// Paired seeds: a workload draws the same stream on
					// every platform.
					Tenants: []replay.Tenant{{Name: wl, Workload: wl, Seed: runner.DeriveSeed(seed, wl)}},
				},
				o: replay.Options{Scale: scale, Seed: seed},
			})
		}
	}
	return &w
}

// fanout is the sampled target's checkpoint fan-out: a random-read
// service beside a random-write streamer on a 4-way hams-LE cache with
// four MSHRs per bank. A rep's set-up runs the 2900-step warm-up and
// encodes its image; its cells each decode that image and run the
// measured phase from it, eight times.
type fanout struct {
	seed int64
	tiny bool
	o    replay.Options
	// image is rep 0's, which every later warm-up must reproduce.
	image []byte
}

// The fan-out's warm-up length in steps per thread, and its cells.
const (
	fanoutWarmup = 2900
	fanoutCells  = 8
)

func newFanout(seed int64, tiny bool) load {
	return &fanout{seed: seed, tiny: tiny, o: replay.Options{Seed: seed}}
}

// scenario is the fan-out co-location with the given warm-up.
func (f *fanout) scenario(warmup int64) replay.Scenario {
	svc, bulk := 4e-5, 3e-5
	if f.tiny {
		svc, bulk, warmup = svc/10, bulk/10, warmup/10
	}
	return replay.Scenario{
		Name:     "warm+measure",
		Platform: "hams-LE",
		PlatOpts: platform.Options{HAMSWays: 4, HAMSNVDIMM: 64 * mem.MiB, HAMSMSHRs: 4},
		Tenants: []replay.Tenant{
			{Name: "svc", Workload: "rndRd", Seed: runner.DeriveSeed(f.seed, "svc"),
				Scale: svc, Dataset: 24 * mem.MiB, Hot: 4 * mem.MiB, HotFrac: 0.8},
			{Name: "bulk", Workload: "rndWr", Seed: runner.DeriveSeed(f.seed, "bulk"),
				Scale: bulk, Dataset: 48 * mem.MiB, Base: mem.GiB},
		},
		Warmup: warmup,
	}
}

// warmup runs the warm-up phase and encodes its image.
func (f *fanout) warmup(tr *tracer) ([]byte, error) {
	t0 := time.Now()
	img, err := replay.Warmup(f.scenario(fanoutWarmup), f.o)
	tr.span("replay.warmup", t0)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	var b bytes.Buffer
	err = checkpoint.Encode(&b, img)
	tr.span("checkpoint.encode", t0)
	return b.Bytes(), err
}

func (f *fanout) rep(tr *tracer) (repOut, error) {
	var out repOut
	t0 := time.Now()
	image, err := f.warmup(tr)
	out.setup = time.Since(t0)
	if err != nil {
		return out, err
	}
	first := f.image == nil
	if first {
		f.image = image
	} else {
		out.check(bytes.Equal(image, f.image), "warm-up image differs from rep 0's")
	}
	if tr != nil {
		tr.values["checkpoint.image_bytes"] = float64(len(image))
	}
	sims := make([]cellSim, fanoutCells)
	for i := range sims {
		// Each restore starts from a collected heap, as a rep does, so
		// peak RSS holds one restored platform rather than the garbage
		// of several.
		runtime.GC()
		t0 := time.Now()
		img, err := checkpoint.Decode(bytes.NewReader(image))
		tr.span("checkpoint.decode", t0)
		if err != nil {
			return out, err
		}
		sc := f.scenario(0)
		sc.Checkpoint = img
		t1 := time.Now()
		var r replay.Result
		if tr == nil {
			if r, err = replay.Run(sc, f.o); err != nil {
				return out, err
			}
			sims[i] = simOf(r)
		} else if sims[i], err = tracedCell(sc, f.o, tr); err != nil {
			return out, err
		}
		tr.span("replay.restored_run", t1)
		out.cells = append(out.cells, time.Since(t0))
		out.accesses += sims[i].CPU.MemAccesses
		// Rep 0 is never traced, so r holds its first restored cell.
		if first && i == 0 {
			if err := f.checkLive(&out.tally, r); err != nil {
				return out, err
			}
		}
	}
	out.sim = sims
	out.simRate, out.simP99 = simFigures(sims, "svc")
	return out, nil
}

// checkLive pins the fan-out's promise, once, in rep 0: a restored
// cell is bit-identical to a live phase-split run of the same
// scenario.
func (f *fanout) checkLive(t *tally, restored replay.Result) error {
	runtime.GC()
	live, err := replay.Run(f.scenario(fanoutWarmup), f.o)
	if err != nil {
		return fmt.Errorf("live twin: %w", err)
	}
	t.check(reflect.DeepEqual(live, restored), "restored cell differs from its live phase-split twin")
	return nil
}
