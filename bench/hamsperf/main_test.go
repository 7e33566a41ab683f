package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for hamsperf when the parent
// re-executes itself to run a workload in a child process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkFileMatchesCatalog pins BENCHMARK.json to the code: the
// same workloads, and the same metric names and units in the same
// order, within the name grammar and counts the file allows.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	f := loadBenchmark(t)
	if len(f.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(f.Workloads), len(specs))
	}
	seen := map[string]bool{}
	for i, w := range f.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the code %q", i, w.Name, specs[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1-200 characters", w.Name)
		}
	}
	check := func(pass string, got []declared, want []metricDef, maxN int, bounded bool) {
		if len(got) != len(want) || len(got) < 1 || len(got) > maxN {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the code %d (allowed 1-%d)", pass, len(got), len(want), maxN)
		}
		for i, d := range got {
			if d.Name != want[i].name || d.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json declares %s [%s], the code %s [%s]", pass, i, d.Name, d.Unit, want[i].name, want[i].unit)
			}
			if !nameRE.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("%s: name %q is malformed or used twice", pass, d.Name)
			}
			seen[d.Name] = true
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: unit %q of %s is malformed", pass, d.Unit, d.Name)
			}
			if d.Better != "higher" && d.Better != "lower" {
				t.Errorf("%s: %s: better must be higher or lower, got %q", pass, d.Name, d.Better)
			}
			// An end-to-end metric may worsen by at most a tenth; set-up
			// time, the noisiest, takes the largest bound the file allows.
			limit := 0.10
			if d.Name == "setup_s" {
				limit = 0.25
			}
			if bounded != (d.Bound != nil) || bounded && (*d.Bound <= 0 || *d.Bound > limit) {
				t.Errorf("%s: %s: bound must be in (0, %v] for end-to-end metrics and absent otherwise", pass, d.Name, limit)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd, 16, true)
	check("per_layer", f.PerLayer, perLayer, 128, false)
	setup := f.EndToEnd[0]
	if setup.Name != "setup_s" || setup.Better != "lower" || setup.Bound == nil {
		t.Fatal("setup_s must be declared first, lower is better, with a bound")
	}
	for _, d := range f.EndToEnd[1:] {
		if d.Bound != nil && *d.Bound > *setup.Bound {
			t.Errorf("%s: bound %v exceeds setup_s's %v, which must be the largest", d.Name, *d.Bound, *setup.Bound)
		}
	}
}

// TestWorkloadsTiny runs both passes of every workload at a tiny size,
// through the same parent and child processes the benchmark uses. Each
// result line must carry exactly the declared names with their units,
// and no checked operation may fail; the failures counted include the
// traced rep disagreeing with the untraced ones.
func TestWorkloadsTiny(t *testing.T) {
	f := loadBenchmark(t)
	for trace, decl := range [][]declared{f.EndToEnd, f.PerLayer} {
		var stdout, stderr bytes.Buffer
		out := filepath.Join(t.TempDir(), "results.json")
		args := []string{"-tiny", "-seconds", "0", "-trace", strconv.Itoa(trace), "-out", out}
		if code := realMain(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %d: exit %d\n%s%s", trace, code, stdout.String(), stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		if !strings.HasPrefix(lines[len(lines)-1], "{") {
			t.Fatalf("trace %d: last line is not a result: %q", trace, lines[len(lines)-1])
		}
		var results int
		for _, line := range lines {
			if !strings.HasPrefix(line, "{") {
				continue
			}
			results++
			var r struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]value
			}
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("trace %d result %d: correct=%v failed=%d of %d\n%s", trace, results, r.Correct, r.Failed, r.Attempted, stdout.String())
			}
			if len(r.Metrics) != len(decl) {
				t.Errorf("trace %d result %d: %d metrics, %d declared", trace, results, len(r.Metrics), len(decl))
			}
			for _, d := range decl {
				m, ok := r.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("trace %d result %d: %s missing or not in %s", trace, results, d.Name, d.Unit)
				}
				if trace == 0 && m.Value <= 0 {
					t.Errorf("trace %d result %d: end-to-end %s = %v, want > 0", trace, results, d.Name, m.Value)
				}
			}
			// Every workload reaches these per-layer figures.
			for _, name := range []string{"host_accesses_per_s", "cell_host_ms_p50", "sim_units_per_s", "sim_p99_ns", "trace.wall_s"} {
				if m, ok := r.Metrics[name]; trace == 1 && ok && m.Value <= 0 {
					t.Errorf("trace 1 result %d: %s = %v, want > 0", results, name, m.Value)
				}
			}
		}
		if results != len(specs) {
			t.Errorf("trace %d: %d result lines for %d workloads", trace, results, len(specs))
		}
		if _, err := os.Stat(out); err != nil {
			t.Errorf("trace %d: results file: %v", trace, err)
		}
	}
}

// TestAttribute checks the innermost-frame rule on `pprof -traces`
// text: label lines are skipped, a stack goes to its innermost hams or
// benchmark frame, and a stack with neither is runtime.
func TestAttribute(t *testing.T) {
	traces := `File: hamsperf
Type: cpu
-----------+-------------------------------------------------------
  hamsperf:  rep
      30ms   runtime.memmove
             hams/internal/mem.(*SparseStore).ReadAt
             hams/internal/core.(*Controller).evict
-----------+-------------------------------------------------------
      10ms   hams/internal/core/tagstore.(*Store).Victim (inline)
             hams/internal/core.(*Controller).accessPage
-----------+-------------------------------------------------------
      40ms   runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      10ms   bytes.Equal
             main.(*mosDirect).rep
             main.measure
-----------+-------------------------------------------------------
      10ms   hams.(*MoS).Read
             main.(*mosDirect).rep
-----------+-------------------------------------------------------
`
	got, err := attribute([]byte(traces))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"mem": 0.3, "core-tagstore": 0.1, "runtime": 0.4, "bench": 0.1, "other": 0.1}
	if len(got) != len(want) {
		t.Fatalf("attribute = %v, want %v", got, want)
	}
	for l, w := range want {
		if d := got[l] - w; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s share = %v, want %v", l, got[l], w)
		}
	}
}

// TestFlagErrors checks that malformed invocations exit 2 before any
// work.
func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-trace", "2"},
		{"-seconds", "-1"},
		{"-workload", "nope"},
		{"-child"},
		{"extra"},
	} {
		var stdout, stderr bytes.Buffer
		if code := realMain(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 and no output", args, code, stdout.String())
		}
	}
}
