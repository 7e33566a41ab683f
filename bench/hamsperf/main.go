// Command hamsperf is the simulator's benchmark. It times the public
// entry points of the HAMS model from outside (hams.MoS, replay.Run
// and replay.Warmup, platform.New and platform.Restore, cpu.NewRunner,
// checkpoint.Encode and checkpoint.Decode), end to end and layer by
// layer, over four workloads, and checks every result it times.
//
//	bash bench/run.sh -workload colocation -seed 42 -seconds 10 -trace 0
//
// -trace 0 reports the end-to-end metrics, measured on untraced reps;
// -trace 1 reports the per-layer metrics of a traced rep, a profiled
// rep and the process counters. Every workload runs in a child
// process, so its peak RSS is its own. The last line of standard
// output is one JSON object with the keys correct, attempted, failed
// and metrics; the results file holds every metric and the raw
// samples. bench/README.md documents the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
)

// spec names a workload and builds its inputs from a seed.
type spec struct {
	name  string
	build func(seed int64, tiny bool) load
}

var specs = []spec{
	{"colocation", newColocation},
	{"mos-direct", newMosDirect},
	{"platform-sweep", newPlatformSweep},
	{"checkpoint-fanout", newFanout},
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	tiny     bool
	child    bool
	prof     string
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "hamsperf:", err)
		}
		return 2
	}
	if o.child {
		return runChild(o, stdout, stderr)
	}
	return runParent(o, stdout, stderr)
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.name
	}
	fs := flag.NewFlagSet("hamsperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload: "+strings.Join(names, ", ")+" or all")
	fs.Int64Var(&o.seed, "seed", 42, "workload seed; every tenant and operation seed derives from it")
	fs.Float64Var(&o.seconds, "seconds", 5, "timed seconds per workload, in whole reps, at least three")
	fs.IntVar(&o.trace, "trace", 0, "0 reports the end-to-end metrics, 1 the per-layer metrics")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "hamsperf-results.json"), "results file: every metric and the raw samples")
	fs.BoolVar(&o.tiny, "tiny", false, "shrink every workload to a smoke-test size")
	fs.BoolVar(&o.child, "child", false, "run one workload in this process and print its result as JSON")
	fs.StringVar(&o.prof, "cpuprofile", "", "with -child and -trace 1: write the profiled rep's CPU profile here")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case o.trace != 0 && o.trace != 1:
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	case o.seconds < 0 || math.IsNaN(o.seconds) || math.IsInf(o.seconds, 0):
		return o, fmt.Errorf("-seconds must be a non-negative number, got %v", o.seconds)
	case o.workload == "all" && o.child:
		return o, errors.New("-child runs a single workload")
	case o.workload != "all" && !slices.Contains(names, o.workload):
		return o, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(names, ", "))
	}
	return o, nil
}

func findSpec(name string) spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	panic("hamsperf: unvalidated workload " + name)
}

func runChild(o options, stdout, stderr io.Writer) int {
	r, err := measure(findSpec(o.workload), o)
	if err != nil {
		fmt.Fprintf(stderr, "hamsperf: %s: %v\n", o.workload, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(r); err != nil {
		fmt.Fprintf(stderr, "hamsperf: %s: %v\n", o.workload, err)
		return 1
	}
	return 0
}

func runParent(o options, stdout, stderr io.Writer) int {
	selected := specs
	if o.workload != "all" {
		selected = []spec{findSpec(o.workload)}
	}
	if err := os.MkdirAll(filepath.Dir(o.out), 0o755); err != nil {
		fmt.Fprintln(stderr, "hamsperf:", err)
		return 1
	}
	code := 0
	var results []*childResult
	for _, sp := range selected {
		r, err := runWorkload(o, sp.name, stderr)
		if err == nil {
			err = report(stdout, o, r)
		}
		if err != nil {
			fmt.Fprintf(stderr, "hamsperf: %s: %v\n", sp.name, err)
			code = 1
			continue
		}
		if r.Failed > 0 {
			code = 1
		}
		results = append(results, r)
	}
	if err := writeResults(o, results); err != nil {
		fmt.Fprintln(stderr, "hamsperf:", err)
		return 1
	}
	return code
}

// runWorkload runs one workload in a child process, adds the child's
// peak RSS and, for the per-layer pass, the profile attribution.
func runWorkload(o options, name string, stderr io.Writer) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", name, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(o.trace)}
	if o.tiny {
		args = append(args, "-tiny")
	}
	prof := ""
	if o.trace == 1 {
		prof = filepath.Join(filepath.Dir(o.out), "hamsperf-"+name+".pprof")
		args = append(args, "-cpuprofile", prof)
	}
	cmd := exec.Command(exe, args...)
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	var r childResult
	if err := json.Unmarshal(buf.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	// Linux reports ru_maxrss in KiB.
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, errors.New("no resource usage for the child")
	}
	r.Metrics["peak_rss_mb"] = float64(ru.Maxrss) / 1024
	r.Counts["peak_rss_mb"] = 1
	if prof != "" {
		shares, err := profileShares(prof)
		if err != nil {
			fmt.Fprintf(stderr, "hamsperf: %s: profile shares left at 0: %v\n", name, err)
		}
		for _, l := range profLayers {
			r.Metrics["prof."+l+".share"] = shares[l]
		}
	}
	return &r, nil
}

// value is one metric as the result line prints it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints one workload's metrics for the pass, one per line
// with its unit and sample count, then the result line.
func report(w io.Writer, o options, r *childResult) error {
	fmt.Fprintf(w, "hamsperf %s seed=%d trace=%d: %d of %d checked operations failed\n",
		r.Workload, o.seed, o.trace, r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Fprintln(w, "  FAIL", f)
	}
	metrics := map[string]value{}
	for _, m := range catalog(o.trace) {
		v, ok := r.Metrics[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no finite value", m.name)
		}
		fmt.Fprintf(w, "  %-30s %16.6g %-12s n=%d\n", m.name, v, m.unit, max(r.Counts[m.name], 1))
		metrics[m.name] = value{v, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0 && r.Attempted > 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}

// writeResults writes every workload's metrics and raw samples.
func writeResults(o options, results []*childResult) error {
	b, err := json.MarshalIndent(struct {
		Seed      int64             `json:"seed"`
		Seconds   float64           `json:"seconds"`
		Trace     int               `json:"trace"`
		Tiny      bool              `json:"tiny"`
		Units     map[string]string `json:"units"`
		Workloads []*childResult    `json:"workloads"`
	}{o.seed, o.seconds, o.trace, o.tiny, unitTable(), results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.out, append(b, '\n'), 0o644)
}

// unitTable maps every catalogued metric to its unit.
func unitTable() map[string]string {
	out := map[string]string{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		out[m.name] = m.unit
	}
	return out
}
