package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hams/internal/api"
	"hams/internal/report"
)

// exec runs realMain with captured streams.
func exec(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = realMain(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestQoSFlagValidationExitsTwo pins PR 2's up-front validation
// convention on the new qos flags: malformed masks, throttles and
// unknown class names must exit 2 before any cell runs.
func TestQoSFlagValidationExitsTwo(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"malformed mask", []string{"-qos-masks", "latency=zz", "qos"}},
		{"empty mask value", []string{"-qos-masks", "latency=0x0", "qos"}},
		{"mask missing name", []string{"-qos-masks", "=0x3", "qos"}},
		{"mask repeated name", []string{"-qos-masks", "latency=0x3,latency=0xc", "qos"}},
		{"unknown mask class", []string{"-qos-masks", "nobody=0x3", "qos"}},
		{"mbps not a number", []string{"-qos-mbps", "stream=fast", "qos"}},
		{"mbps negative", []string{"-qos-mbps", "stream=-5", "qos"}},
		{"unknown mbps class", []string{"-qos-mbps", "nobody=100", "qos"}},
	}
	for _, tc := range cases {
		code, _, errOut := exec(tc.args...)
		if code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr: %s)", tc.name, code, errOut)
		}
		if errOut == "" {
			t.Errorf("%s: no diagnostic on stderr", tc.name)
		}
	}
}

// TestTargetValidationExitsTwo: unknown targets and empty invocations
// fail before anything runs (pre-existing convention, re-pinned after
// the realMain refactor).
func TestTargetValidationExitsTwo(t *testing.T) {
	if code, _, errOut := exec("no-such-target"); code != 2 || !strings.Contains(errOut, "no-such-target") {
		t.Fatalf("unknown target: exit %d, stderr %q", code, errOut)
	}
	// autoqos folded into qos's auto variant; the old name is unknown
	// and the diagnostic lists the valid ones.
	if code, _, errOut := exec("autoqos"); code != 2 || !strings.Contains(errOut, "qos, mlp") {
		t.Fatalf("autoqos: exit %d, stderr %q", code, errOut)
	}
	// -slo-p99 tunes qos's auto variant, so it needs the qos target.
	if code, _, errOut := exec("-slo-p99", "5us", "table1"); code != 2 || !strings.Contains(errOut, "-slo-p99: only meaningful with the qos target") {
		t.Fatalf("-slo-p99 without qos: exit %d, stderr %q", code, errOut)
	}
	if code, _, _ := exec(); code != 2 {
		t.Fatalf("no targets: exit %d, want 2", code)
	}
	if code, _, _ := exec("compare", "only-one.json"); code != 2 {
		t.Fatalf("compare arity: exit %d, want 2", code)
	}
}

// TestCheckpointFlagValidationExitsTwo: the checkpoint flags follow
// the same up-front convention — a missing or malformed image and an
// uncreatable output path exit 2 before any cell runs.
func TestCheckpointFlagValidationExitsTwo(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "trunc.ckpt")
	if err := os.WriteFile(bad, []byte("HAMC\x01\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
	}{
		{"from-checkpoint missing file", []string{"-from-checkpoint", filepath.Join(dir, "gone.ckpt"), "sampled"}},
		{"from-checkpoint truncated image", []string{"-from-checkpoint", bad, "sampled"}},
		{"checkpoint uncreatable path", []string{"-checkpoint", filepath.Join(dir, "no", "such", "dir.ckpt"), "sampled"}},
	}
	for _, tc := range cases {
		code, _, errOut := exec(tc.args...)
		if code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr: %s)", tc.name, code, errOut)
		}
		if errOut == "" {
			t.Errorf("%s: no diagnostic on stderr", tc.name)
		}
	}
}

// TestStaticTargetRuns: a full realMain pass over a static table —
// the cheapest end-to-end run — exits 0 and renders the table.
func TestStaticTargetRuns(t *testing.T) {
	code, out, errOut := exec("-scale", "1e-8", "table1")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "Table I") {
		t.Fatalf("table not rendered:\n%s", out)
	}
}

// TestSplitQoSFlagsValues: the accepted assignment-list syntax maps to
// the JobSpec fields api.Validate then checks like any JSON body's.
func TestSplitQoSFlagsValues(t *testing.T) {
	masks, mbps, err := splitQoSFlags("latency=0xf0, stream=0b11", "stream=250")
	if err != nil {
		t.Fatal(err)
	}
	if masks["latency"] != "0xf0" || masks["stream"] != "0b11" || mbps["stream"] != 250 {
		t.Fatalf("parsed masks=%v mbps=%v", masks, mbps)
	}
	// "full" is legal mask syntax (the all-ways convention) and must
	// survive the flag split for Validate to accept downstream.
	masks, _, err = splitQoSFlags("latency=full", "")
	if err != nil || masks["latency"] != "full" {
		t.Fatalf("full mask: masks=%v err=%v", masks, err)
	}
	if m, b, err := splitQoSFlags("", ""); err != nil || m != nil || b != nil {
		t.Fatalf("empty flags: %v %v %v", m, b, err)
	}
}

// TestCLIMatchesAPI is the hamsbench half of the parity acceptance
// gate: the flag set and the equivalent POST /v1/jobs body must
// produce byte-identical canonical cell sets, because both roads lead
// through the same JobSpec builders and target dispatch.
func TestCLIMatchesAPI(t *testing.T) {
	artPath := filepath.Join(t.TempDir(), "cli.json")
	code, _, errOut := exec("-scale", "1e-7", "-seed", "7", "-parallel", "2",
		"-json", artPath, "mixed")
	if code != 0 {
		t.Fatalf("CLI exit %d, stderr: %s", code, errOut)
	}
	art, err := report.Load(artPath)
	if err != nil {
		t.Fatal(err)
	}
	spec := api.JobSpec{Kind: api.KindTarget, Targets: []string{"mixed"},
		Scale: 1e-7, Seed: 7, Parallel: 2}
	if err := api.Validate(spec); err != nil {
		t.Fatal(err)
	}
	cells, err := api.Execute(spec, api.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cli, apiCells := report.CanonicalCells(art.Cells), report.CanonicalCells(cells)
	if len(cli) == 0 || !reflect.DeepEqual(cli, apiCells) {
		t.Fatalf("CLI and API cells differ:\nCLI: %+v\nAPI: %+v", cli, apiCells)
	}
}

// TestProgressFlagStreamsCells: -progress emits one stderr line per
// cell without perturbing the result tables.
func TestProgressFlagStreamsCells(t *testing.T) {
	code, out, errOut := exec("-scale", "1e-8", "-progress", "table1")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "Table I") {
		t.Fatalf("table not rendered:\n%s", out)
	}
	if !strings.Contains(errOut, "cell tables/table1") {
		t.Fatalf("no progress line on stderr:\n%s", errOut)
	}
}

// TestProfileFlagValidationExitsTwo pins the same up-front convention
// on the profiling and output flags: an uncreatable profile, artifact
// or summary path must exit 2 before any cell runs, not after the run
// it was meant to capture.
func TestProfileFlagValidationExitsTwo(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no-such-dir", "p.out")
	for _, flag := range []string{"-cpuprofile", "-memprofile", "-json", "-summary"} {
		code, _, errOut := exec(flag, bad, "table1")
		if code != 2 {
			t.Errorf("%s bad path: exit %d, want 2 (stderr: %s)", flag, code, errOut)
		}
		if !strings.Contains(errOut, flag) {
			t.Errorf("%s bad path: diagnostic %q does not name the flag", flag, errOut)
		}
	}
}

// TestProfileFlagsWriteProfiles: a real run with both profile flags
// exits 0 and leaves non-empty pprof files behind.
func TestProfileFlagsWriteProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	heap := filepath.Join(dir, "heap.pprof")
	code, _, errOut := exec("-scale", "1e-8", "-cpuprofile", cpu, "-memprofile", heap, "table1")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, p := range []string{cpu, heap} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile missing: %v", err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

// writeArtifact serializes a minimal single-cell artifact for compare
// tests.
func writeArtifact(t *testing.T, path string, workers int, simTP, hostTP float64) {
	t.Helper()
	art := report.Artifact{
		Schema: report.SchemaVersion, Name: "t", Scale: 1e-8, Seed: 42, Workers: workers,
		Cells: []report.Cell{{Key: "t/cell", Target: "t", UnitsPerSec: simTP, HostUnitsPerSec: hostTP}},
	}
	if err := report.WriteFile(path, art); err != nil {
		t.Fatal(err)
	}
}

// TestCompareHostThreshold: the wall-clock gate is off by default,
// rejects negative thresholds up front, fails only on regressions
// beyond the bar, and demands hermetic (serial) artifacts.
func TestCompareHostThreshold(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	slow := filepath.Join(dir, "slow.json")
	fast := filepath.Join(dir, "fast.json")
	par := filepath.Join(dir, "par.json")
	writeArtifact(t, base, 1, 100, 1000)
	writeArtifact(t, slow, 1, 100, 500) // 50% host regression, simulated unchanged
	writeArtifact(t, fast, 1, 100, 2000)
	writeArtifact(t, par, 4, 100, 1000)

	if code, _, errOut := exec("compare", "-host-threshold", "-0.1", base, slow); code != 2 {
		t.Fatalf("negative threshold: exit %d, want 2 (stderr: %s)", code, errOut)
	}
	// Off by default: a huge host regression alone must not fail.
	if code, _, errOut := exec("compare", base, slow); code != 0 {
		t.Fatalf("default compare: exit %d, stderr: %s", code, errOut)
	}
	if code, _, _ := exec("compare", "-host-threshold", "0.3", base, slow); code != 1 {
		t.Fatalf("50%% regression under 30%% bar: exit %d, want 1", code)
	}
	if code, _, errOut := exec("compare", "-host-threshold", "0.3", base, fast); code != 0 {
		t.Fatalf("improvement: exit %d, stderr: %s", code, errOut)
	}
	// Parallel artifacts are not hermetic; the gate must refuse them.
	if code, _, errOut := exec("compare", "-host-threshold", "0.3", base, par); code == 0 || !strings.Contains(errOut, "serial") {
		t.Fatalf("parallel artifact: exit %d, stderr %q", code, errOut)
	}
}

// TestCompareRejectsDivergentCellSets: a baseline whose cell set no
// longer matches the candidate's (targets added or removed) must fail
// with a diagnostic naming every stray key — never silently skip the
// unmatched cells and report a pass over the intersection.
func TestCompareRejectsDivergentCellSets(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	cand := filepath.Join(dir, "cand.json")
	writeArtifact(t, base, 1, 100, 1000)
	art := report.Artifact{
		Schema: report.SchemaVersion, Name: "t", Scale: 1e-8, Seed: 42, Workers: 1,
		Cells: []report.Cell{
			{Key: "t/cell", Target: "t", UnitsPerSec: 100, HostUnitsPerSec: 1000},
			{Key: "autoqos/new", Target: "autoqos", UnitsPerSec: 50, HostUnitsPerSec: 500},
		},
	}
	if err := report.WriteFile(cand, art); err != nil {
		t.Fatal(err)
	}

	code, _, errOut := exec("compare", base, cand)
	if code != 1 {
		t.Fatalf("divergent cell sets: exit %d, want 1 (stderr: %s)", code, errOut)
	}
	if !strings.Contains(errOut, "diverge") || !strings.Contains(errOut, "+ autoqos/new") {
		t.Fatalf("diagnostic does not name the stray cell:\n%s", errOut)
	}
	if !strings.Contains(errOut, "regenerate the baseline") {
		t.Fatalf("diagnostic does not say how to fix it:\n%s", errOut)
	}

	// The reverse direction — a cell the baseline has but the candidate
	// lost — fails the same way.
	code, _, errOut = exec("compare", cand, base)
	if code != 1 || !strings.Contains(errOut, "- autoqos/new") {
		t.Fatalf("removed cell: exit %d, stderr:\n%s", code, errOut)
	}
}

// TestHelpExitsZero: -h prints usage and exits 0 (the ExitOnError
// behavior scripts rely on, preserved across the FlagSet refactor).
func TestHelpExitsZero(t *testing.T) {
	if code, _, _ := exec("-h"); code != 0 {
		t.Fatalf("-h exit %d, want 0", code)
	}
	if code, _, _ := exec("compare", "-h"); code != 0 {
		t.Fatalf("compare -h exit %d, want 0", code)
	}
}
