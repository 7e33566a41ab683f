package api

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hams/internal/checkpoint"
	"hams/internal/core/tagstore"
	"hams/internal/platform"
	"hams/internal/qos"
	"hams/internal/replay"
	"hams/internal/report"
	"hams/internal/workload"
)

func TestPlatformOptionsMirrorsSpec(t *testing.T) {
	spec := JobSpec{
		Kind: KindRun, Platform: "hams-LE", Workload: "seqRd",
		PageBytes: 1 << 16, Ways: 4, Banks: 2, Policy: "clock",
		MSHRs: 4, QueueDepth: 8, NVDIMM: 1 << 20,
	}
	p, err := spec.PlatformOptions()
	if err != nil {
		t.Fatal(err)
	}
	want := platform.Options{
		HAMSPage: 1 << 16, HAMSWays: 4, HAMSBanks: 2, HAMSPolicy: tagstore.Clock,
		HAMSMSHRs: 4, HAMSQueueDepth: 8, HAMSNVDIMM: 1 << 20,
	}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("got %+v, want %+v", p, want)
	}
}

// TestPlatformOptionsRunQoS pins the hamssim single-class semantics:
// a mask and/or throttle folds into a one-class table; no budget at
// all (or an explicit full mask with no throttle) stays unbounded.
func TestPlatformOptionsRunQoS(t *testing.T) {
	spec := JobSpec{Kind: KindRun, Platform: "hams-LE", Workload: "seqRd",
		QoSMasks: map[string]string{"workload": "0x3"},
		QoSMBps:  map[string]float64{"workload": 200}}
	p, err := spec.PlatformOptions()
	if err != nil {
		t.Fatal(err)
	}
	if p.HAMSQoS == nil || len(p.HAMSQoS.Classes) != 1 {
		t.Fatalf("want a one-class table, got %+v", p.HAMSQoS)
	}
	if c := p.HAMSQoS.Classes[0]; c != (qos.Class{Name: "workload", WayMask: 0x3, MBps: 200}) {
		t.Fatalf("class = %+v", c)
	}

	for _, s := range []JobSpec{
		{Kind: KindRun, Platform: "hams-LE", Workload: "seqRd"},
		{Kind: KindRun, Platform: "hams-LE", Workload: "seqRd",
			QoSMasks: map[string]string{"workload": "full"}},
	} {
		p, err := s.PlatformOptions()
		if err != nil {
			t.Fatal(err)
		}
		if p.HAMSQoS != nil {
			t.Fatalf("unbounded spec grew a table: %+v", p.HAMSQoS)
		}
	}
}

func TestScenarioBuildsTenantsAndTable(t *testing.T) {
	spec := validScenario()
	sc, err := spec.Scenario(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "pair" || sc.Platform != "hams-LE" {
		t.Fatalf("scenario identity: %+v", sc)
	}
	want := []replay.Tenant{
		{Name: "a", Workload: "rndRd"},
		{Name: "b", Workload: "seqWr", Class: "bulk"},
	}
	if !reflect.DeepEqual(sc.Tenants, want) {
		t.Fatalf("tenants = %+v, want %+v", sc.Tenants, want)
	}
	if sc.QoS == nil || len(sc.QoS.Classes) != 1 ||
		sc.QoS.Classes[0] != (qos.Class{Name: "bulk", WayMask: 0x3, MBps: 100}) {
		t.Fatalf("qos table = %+v", sc.QoS)
	}
}

// recordTrace writes a small v2 container to a temp file and returns
// its path.
func recordTrace(t *testing.T, wl string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), wl+".trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	o := workload.DefaultOptions()
	o.Scale = 1e-7
	o.Seed = 42
	if _, err := replay.RecordWorkload(f, wl, o, replay.AllThreads); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestScenarioSoleUnnamedTraceTenant pins the hamstrace-replay shape:
// one unnamed trace tenant expands via the container's own labels.
func TestScenarioSoleUnnamedTraceTenant(t *testing.T) {
	path := recordTrace(t, "seqRd")
	spec := JobSpec{Kind: KindScenario, Platform: "hams-LE",
		Tenants: []TenantSpec{{Trace: path}}}
	if err := Validate(spec); err != nil {
		t.Fatal(err)
	}
	sc, err := spec.Scenario(FileTraces{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Tenants) == 0 {
		t.Fatal("no tenants expanded from trace")
	}
	for _, ten := range sc.Tenants {
		if ten.Trace == nil {
			t.Fatalf("tenant %q lost its trace", ten.Name)
		}
	}
	if sc.Name != "scenario" {
		t.Fatalf("default name = %q", sc.Name)
	}
}

func TestScenarioTraceWithoutResolver(t *testing.T) {
	spec := JobSpec{Kind: KindScenario, Platform: "hams-LE",
		Tenants: []TenantSpec{{Trace: "x.trace"}}}
	if _, err := spec.Scenario(nil, nil); err == nil {
		t.Fatal("want an error without a resolver")
	}
	if _, err := spec.Scenario(FileTraces{}, nil); err == nil {
		t.Fatal("want an error for a missing file")
	}
}

// TestScenarioCheckpointResolution: a checkpoint reference resolves
// through the seam into Scenario.Checkpoint (and its warm-up carries
// through), a nil resolver fails loudly, and a file resolver surfaces
// open/decode errors with the reference in the message.
func TestScenarioCheckpointResolution(t *testing.T) {
	base := JobSpec{Kind: KindScenario, Platform: "hams-LE", Name: "restored",
		Tenants: []TenantSpec{{Name: "seqRd", Workload: "seqRd", Seed: 7}}}

	warm := base
	warm.Warmup = 20
	sc, err := warm.Scenario(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Warmup != 20 {
		t.Fatalf("Warmup lost in build: %d", sc.Warmup)
	}
	img, err := replay.Warmup(sc, replay.Options{Scale: 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "warm.ckpt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.Encode(f, img); err != nil {
		t.Fatal(err)
	}
	f.Close()

	spec := base
	spec.Checkpoint = path
	if err := Validate(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Scenario(nil, nil); err == nil {
		t.Fatal("want an error without a checkpoint resolver")
	}
	sc, err = spec.Scenario(nil, FileCheckpoints{})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Checkpoint == nil || sc.Checkpoint.Warmup != 20 {
		t.Fatalf("checkpoint not resolved: %+v", sc.Checkpoint)
	}

	spec.Checkpoint = filepath.Join(t.TempDir(), "missing.ckpt")
	if _, err := spec.Scenario(nil, FileCheckpoints{}); err == nil {
		t.Fatal("want an error for a missing image file")
	}
}

func TestExperimentOptionsDefaults(t *testing.T) {
	o, err := JobSpec{Kind: KindTarget, Targets: []string{"table1"}}.ExperimentOptions()
	if err != nil {
		t.Fatal(err)
	}
	if o.Scale != 3e-6 || o.Seed != 42 {
		t.Fatalf("zero spec should map to harness defaults, got scale %g seed %d", o.Scale, o.Seed)
	}
	o, err = JobSpec{Kind: KindTarget, Targets: []string{"qos"}, Scale: 1e-7, Seed: 7,
		Parallel: 3, MSHRs: 4,
		QoSMasks: map[string]string{"latency": "0xc"},
		QoSMBps:  map[string]float64{"stream": 50}}.ExperimentOptions()
	if err != nil {
		t.Fatal(err)
	}
	if o.Scale != 1e-7 || o.Seed != 7 || o.Parallel != 3 || o.MSHRs != 4 {
		t.Fatalf("explicit fields lost: %+v", o)
	}
	if o.QoSMasks["latency"] != 0xc || o.QoSMBps["stream"] != 50 {
		t.Fatalf("qos overrides lost: masks %v mbps %v", o.QoSMasks, o.QoSMBps)
	}
}

// TestExecuteDeterministicAcrossWorkerCounts is the package-level half
// of the parity guarantee: the same spec yields byte-identical
// canonical cells no matter how the cells are scheduled.
func TestExecuteDeterministicAcrossWorkerCounts(t *testing.T) {
	spec := JobSpec{Kind: KindScenario, Platform: "hams-LE", Name: "pair",
		Scale: 1e-7,
		Tenants: []TenantSpec{
			{Name: "a", Workload: "rndRd"},
			{Name: "b", Workload: "seqWr"},
		}}
	if err := Validate(spec); err != nil {
		t.Fatal(err)
	}
	serial := spec
	serial.Parallel = 1
	parallel := spec
	parallel.Parallel = 4
	c1, err := Execute(serial, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Execute(parallel, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c1) == 0 {
		t.Fatal("no cells")
	}
	if !reflect.DeepEqual(report.CanonicalCells(c1), report.CanonicalCells(c2)) {
		t.Fatalf("worker count changed cells:\n%+v\nvs\n%+v", c1, c2)
	}
	if c1[0].Key != "mixed/pair@hams-LE" {
		t.Fatalf("scenario cell key = %q, want mixed/pair@hams-LE", c1[0].Key)
	}
}

// TestExecuteRunMatchesRunOne pins that a run job's single cell is the
// exact cell the hamssim path produces.
func TestExecuteRunMatchesRunOne(t *testing.T) {
	spec := JobSpec{Kind: KindRun, Platform: "hams-LE", Workload: "seqRd", Scale: 1e-7}
	if err := Validate(spec); err != nil {
		t.Fatal(err)
	}
	cells, err := Execute(spec, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Key != "run/seqRd@hams-LE" {
		t.Fatalf("cells = %+v", cells)
	}
	var progressed []report.Cell
	cells2, err := Execute(spec, ExecOptions{Progress: func(c report.Cell) {
		progressed = append(progressed, c)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(report.CanonicalCells(cells), report.CanonicalCells(cells2)) {
		t.Fatal("progress hook changed the result cells")
	}
	if len(progressed) != 1 || progressed[0].Key != cells[0].Key {
		t.Fatalf("progress stream = %+v", progressed)
	}
}

// TestExecuteTargetRecordsAndCancels: a figure target job records
// every cell it runs and stops under a cancelled context.
func TestExecuteTargetRecordsAndCancels(t *testing.T) {
	spec := JobSpec{Kind: KindTarget, Targets: []string{"fig10"}, Scale: 1e-7}
	if err := Validate(spec); err != nil {
		t.Fatal(err)
	}
	cells, err := Execute(spec, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 9 || cells[0].Key != "fig10/rndRd/hams-LE" {
		t.Fatalf("fig10 job recorded %d cells (first %+v), want 9 from fig10/rndRd/hams-LE", len(cells), cells)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Execute(spec, ExecOptions{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fig10 job: err = %v, want context.Canceled", err)
	}
}
