package main

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"
)

// load is one workload, a set of inputs.
type load interface {
	// rep runs one closed batch. It builds the state its cells run on,
	// timing that set-up apart, then runs and times the cells, the
	// units of work, back to back. With a tracer it also records the
	// traced spans and counters.
	rep(tr *tracer) (repOut, error)
}

// repOut is one rep's result.
type repOut struct {
	tally
	setup    time.Duration   // host time building the state the cells run on
	accesses int64           // simulated accesses, or MoS operations
	cells    []time.Duration // host time of each cell
	sim      any             // simulated outcome, identical on every rep
	// simRate and simP99 are the simulated end-to-end figures drawn
	// from sim: work units per simulated second and a p99 in
	// simulated nanoseconds.
	simRate, simP99 float64
}

// busy is the host time of the rep's cells.
func (r repOut) busy() time.Duration {
	var d time.Duration
	for _, c := range r.cells {
		d += c
	}
	return d
}

// tally counts checked operations and failed ones.
type tally struct {
	attempted, failed int
	failures          []string
}

func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if ok {
		return
	}
	t.failed++
	if len(t.failures) < 10 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, f := range o.failures {
		if len(t.failures) < 10 {
			t.failures = append(t.failures, f)
		}
	}
}

// childResult is what a child process reports for its workload.
type childResult struct {
	Workload  string               `json:"workload"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Failures  []string             `json:"failures,omitempty"`
	Metrics   map[string]float64   `json:"metrics"`
	Counts    map[string]int       `json:"counts"`
	Samples   map[string][]float64 `json:"samples"`
}

// minReps is the fewest timed reps a run makes, however short.
const minReps = 3

// measure runs one workload: an untimed warm-up rep that is the
// reference every later rep must reproduce, timed reps for the
// requested seconds and, for the per-layer pass, a traced rep and
// profiled reps.
func measure(sp spec, o options) (*childResult, error) {
	w := sp.build(o.seed, o.tiny)
	res := &childResult{
		Workload: sp.name,
		Metrics:  map[string]float64{},
		Counts:   map[string]int{},
		Samples:  map[string][]float64{},
	}
	// A layer the workload does not reach reads 0.
	for _, m := range perLayer {
		res.Metrics[m.name] = 0
	}
	var t tally
	runtime.GC()
	base, err := w.rep(nil)
	if err != nil {
		return nil, fmt.Errorf("warm-up rep: %w", err)
	}
	t.merge(base.tally)

	var reps []repOut
	var procs proc
	var cpu []float64
	var setups []time.Duration
	// A smoke run needs one timed rep to compare with rep 0.
	fewest := minReps
	if o.tiny {
		fewest = 1
	}
	start := time.Now()
	for len(reps) < fewest || time.Since(start) < time.Duration(o.seconds*float64(time.Second)) {
		// Every rep starts from a collected heap: the last rep's garbage
		// neither adds to peak RSS nor gets collected on this rep's time.
		runtime.GC()
		p0, c0 := readProc(), cpuTime()
		r, err := w.rep(nil)
		procs = procs.add(readProc(), p0)
		cpu = append(cpu, (cpuTime() - c0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("rep %d: %w", len(reps)+1, err)
		}
		t.merge(r.tally)
		t.check(reflect.DeepEqual(r.sim, base.sim), "rep %d: simulated stats differ from rep 0", len(reps)+1)
		reps = append(reps, r)
		setups = append(setups, r.setup)
	}

	var rates, busy, cells, accesses []float64
	var total int64
	for _, r := range reps {
		b := r.busy().Seconds()
		busy = append(busy, b)
		accesses = append(accesses, float64(r.accesses))
		rates = append(rates, float64(r.accesses)/b)
		total += r.accesses
		for _, c := range r.cells {
			cells = append(cells, float64(c)/float64(time.Millisecond))
		}
	}
	res.Metrics["setup_s"] = median(seconds(setups))
	res.Metrics["host_accesses_per_s"] = median(rates)
	res.Metrics["cell_host_ms_p50"] = median(cells)
	res.Metrics["sim_units_per_s"] = base.simRate
	res.Metrics["sim_p99_ns"] = base.simP99
	res.Counts["setup_s"] = len(setups)
	res.Counts["host_accesses_per_s"] = len(reps)
	res.Counts["cell_host_ms_p50"] = len(cells)
	res.Samples["setup_s"] = seconds(setups)
	res.Samples["rep_busy_s"] = busy
	res.Samples["rep_accesses"] = accesses
	res.Samples["rep_cpu_s"] = cpu
	res.Samples["cell_host_ms"] = cells

	if o.trace == 1 {
		runtime.GC()
		tr := newTracer()
		t0 := time.Now()
		r, err := w.rep(tr)
		wall := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("traced rep: %w", err)
		}
		t.merge(r.tally)
		t.check(reflect.DeepEqual(r.sim, base.sim), "traced rep: simulated stats differ from the untraced reps")
		for k, v := range tr.finish(wall) {
			res.Metrics[k] = v
		}
		res.Metrics["trace.overhead"] = r.busy().Seconds() / median(busy)
		res.Counts["core.hit_host_ns_mean"] = int(tr.hits)
		res.Counts["core.miss_host_ns_p50"] = len(tr.missNS)
		res.Counts["core.miss_host_ns_p99"] = len(tr.missNS)
		if o.prof != "" {
			// A second of samples; a smoke run takes what one rep gives.
			minTime := time.Second
			if o.tiny {
				minTime = 0
			}
			if err := profiledReps(w, o.prof, minTime, base, &t); err != nil {
				return nil, err
			}
		}
	}
	res.Metrics["host.alloc_bytes_per_access"] = ratio(procs.allocBytes, float64(total))
	res.Metrics["host.allocs_per_access"] = ratio(procs.allocObjects, float64(total))
	res.Metrics["host.gc_cpu_share"] = ratio(procs.gcCPU, procs.totalCPU-procs.idleCPU)
	res.Attempted, res.Failed, res.Failures = t.attempted, t.failed, t.failures
	return res, nil
}

// profiledReps runs untraced reps under the CPU profiler for at least
// minTime, and at least one rep. Untraced reps keep the tracer's
// wrappers out of the layers they wrap. Each rep runs under
// the pprof label repLabel, so attribution can leave out what runs
// between reps.
func profiledReps(w load, path string, minTime time.Duration, base repOut, t *tally) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return err
	}
	defer pprof.StopCPUProfile()
	start := time.Now()
	for n := 1; n == 1 || time.Since(start) < minTime; n++ {
		runtime.GC()
		var r repOut
		pprof.Do(context.Background(), pprof.Labels(repLabel, "rep"), func(context.Context) {
			r, err = w.rep(nil)
		})
		if err != nil {
			return fmt.Errorf("profiled rep: %w", err)
		}
		t.merge(r.tally)
		t.check(reflect.DeepEqual(r.sim, base.sim), "profiled rep %d: simulated stats differ from rep 0", n)
	}
	pprof.StopCPUProfile()
	return f.Close()
}

// repLabel keys the pprof label every profiled rep runs under.
const repLabel = "hamsperf"

// proc is a reading of the Go runtime's cumulative counters, or a sum
// of differences between readings.
type proc struct {
	allocBytes, allocObjects float64
	gcCPU, totalCPU, idleCPU float64
}

// add returns p plus the counters' growth from a to b.
func (p proc) add(b, a proc) proc {
	return proc{
		p.allocBytes + b.allocBytes - a.allocBytes,
		p.allocObjects + b.allocObjects - a.allocObjects,
		p.gcCPU + b.gcCPU - a.gcCPU,
		p.totalCPU + b.totalCPU - a.totalCPU,
		p.idleCPU + b.idleCPU - a.idleCPU,
	}
}

func readProc() proc {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return proc{v(0), v(1), v(2), v(3), v(4)}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
