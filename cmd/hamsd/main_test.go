package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hams/internal/api"
	"hams/internal/checkpoint"
	"hams/internal/replay"
	"hams/internal/report"
	"hams/internal/workload"
)

// newTestServer spins up the production handler over httptest.
func newTestServer(t *testing.T, cfg managerConfig) (*httptest.Server, *manager) {
	t.Helper()
	if cfg.Log == nil {
		cfg.Log = newLogger(io.Discard, "text")
	}
	m := newManager(cfg)
	ts := httptest.NewServer(newServer(m, cfg.Log).handler())
	t.Cleanup(func() {
		ts.Close()
		m.Drain()
		m.Wait()
	})
	return ts, m
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// submit posts a spec and returns the accepted status.
func submit(t *testing.T, ts *httptest.Server, spec api.JobSpec) api.JobStatus {
	t.Helper()
	resp, body := postJSON(t, ts.URL+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, body)
	}
	var st api.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitJob polls until the job reaches a terminal state.
func waitJob(t *testing.T, ts *httptest.Server, id string) api.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st api.JobStatus
		getJSON(t, ts.URL+"/v1/jobs/"+id, &st)
		if terminal(st.State) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return api.JobStatus{}
}

// fetchCells reads the job's NDJSON cell stream to completion.
func fetchCells(t *testing.T, ts *httptest.Server, id string) []report.Cell {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/cells")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cells: status %d", resp.StatusCode)
	}
	var cells []report.Cell
	dec := json.NewDecoder(resp.Body)
	for {
		var c report.Cell
		if err := dec.Decode(&c); err == io.EOF {
			return cells
		} else if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, c)
	}
}

// TestJobMatchesDirectExecution is the acceptance gate: a mixed job
// submitted over HTTP yields cells byte-identical to a direct
// api.Execute with the same spec.
func TestJobMatchesDirectExecution(t *testing.T) {
	ts, _ := newTestServer(t, managerConfig{})
	spec := api.JobSpec{Kind: api.KindTarget, Targets: []string{"mixed"},
		Scale: 1e-7, Seed: 42, Client: "ci"}
	st := submit(t, ts, spec)
	if st.State != api.StateQueued && st.State != api.StateRunning {
		t.Fatalf("fresh job state %q", st.State)
	}
	final := waitJob(t, ts, st.ID)
	if final.State != api.StateDone {
		t.Fatalf("job %s: %s (%s)", st.ID, final.State, final.Error)
	}
	got := fetchCells(t, ts, st.ID)
	want, err := api.Execute(spec, api.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || !reflect.DeepEqual(report.CanonicalCells(got), report.CanonicalCells(want)) {
		t.Fatalf("HTTP cells != direct cells:\nHTTP: %+v\ndirect: %+v", got, want)
	}
	if final.Cells != len(want) {
		t.Fatalf("status cells = %d, want %d", final.Cells, len(want))
	}
}

// TestConcurrentBurstUnderDrain is the second acceptance gate: >= 8
// concurrent submissions all complete correctly, and a drain afterward
// 503s new work while the accepted jobs' results stay intact.
func TestConcurrentBurstUnderDrain(t *testing.T) {
	ts, m := newTestServer(t, managerConfig{MaxActive: 3})
	const n = 9
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := api.JobSpec{Kind: api.KindRun, Platform: "hams-LE",
				Workload: "seqRd", Scale: 1e-8, Seed: int64(i + 1),
				Client: fmt.Sprintf("c%d", i%3)}
			ids[i] = submit(t, ts, spec).ID
		}(i)
	}
	wg.Wait()
	for i, id := range ids {
		st := waitJob(t, ts, id)
		if st.State != api.StateDone {
			t.Fatalf("job %d (%s): %s (%s)", i, id, st.State, st.Error)
		}
		cells := fetchCells(t, ts, id)
		if len(cells) != 1 || cells[0].Key != "run/seqRd@hams-LE" {
			t.Fatalf("job %d cells: %+v", i, cells)
		}
	}
	m.Drain()
	resp, body := postJSON(t, ts.URL+"/v1/jobs", api.JobSpec{
		Kind: api.KindRun, Platform: "hams-LE", Workload: "seqRd", Scale: 1e-8})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d: %s", resp.StatusCode, body)
	}
	// Accepted results survive the drain flag.
	if st := waitJob(t, ts, ids[0]); st.State != api.StateDone {
		t.Fatalf("drain clobbered job state: %s", st.State)
	}
}

// TestGracefulDrainFinishesInFlight: a job mid-run when the drain
// starts still completes, its stream delivering every cell.
func TestGracefulDrainFinishesInFlight(t *testing.T) {
	ts, m := newTestServer(t, managerConfig{})
	release := make(chan struct{})
	m.exec = func(spec api.JobSpec, eo api.ExecOptions) ([]report.Cell, error) {
		cells := []report.Cell{{Key: "fake/a"}, {Key: "fake/b"}}
		if eo.Progress != nil {
			eo.Progress(cells[0])
		}
		<-release
		if eo.Progress != nil {
			eo.Progress(cells[1])
		}
		return cells, nil
	}
	st := submit(t, ts, api.JobSpec{Kind: api.KindRun, Platform: "hams-LE", Workload: "seqRd"})

	// Open the live stream before the job can finish.
	streamed := make(chan []report.Cell, 1)
	go func() {
		var cells []report.Cell
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/cells")
		if err == nil {
			dec := json.NewDecoder(resp.Body)
			for {
				var c report.Cell
				if dec.Decode(&c) != nil {
					break
				}
				cells = append(cells, c)
			}
			resp.Body.Close()
		}
		streamed <- cells
	}()
	// Let the stream attach, then drain while the job is blocked
	// mid-flight, then release it.
	time.Sleep(20 * time.Millisecond)
	m.Drain()
	close(release)
	if got := waitJob(t, ts, st.ID); got.State != api.StateDone {
		t.Fatalf("in-flight job after drain: %s (%s)", got.State, got.Error)
	}
	select {
	case cells := <-streamed:
		if len(cells) != 2 || cells[0].Key != "fake/a" || cells[1].Key != "fake/b" {
			t.Fatalf("streamed cells: %+v", cells)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not terminate")
	}
	m.Wait() // must not hang with the job finished
}

// TestAdmissionCap: per-client in-flight caps 429 the overflow while
// other clients stay admitted.
func TestAdmissionCap(t *testing.T) {
	ts, m := newTestServer(t, managerConfig{
		DefaultCap: 0, ClientCaps: map[string]int{"ci": 2},
	})
	release := make(chan struct{})
	m.exec = func(spec api.JobSpec, eo api.ExecOptions) ([]report.Cell, error) {
		<-release
		return []report.Cell{{Key: "fake"}}, nil
	}
	defer close(release)
	spec := api.JobSpec{Kind: api.KindRun, Platform: "hams-LE", Workload: "seqRd", Client: "ci"}
	a, b := submit(t, ts, spec), submit(t, ts, spec)
	resp, body := postJSON(t, ts.URL+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third ci job: %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "in-flight") {
		t.Fatalf("429 body: %s", body)
	}
	// A different client (unlimited default) is still admitted.
	other := spec
	other.Client = "adhoc"
	c := submit(t, ts, other)
	for _, id := range []string{a.ID, b.ID, c.ID} {
		if id == "" {
			t.Fatal("missing job id")
		}
	}
}

// TestCancelQueuedJob: a canceled queued job never runs a cell.
func TestCancelQueuedJob(t *testing.T) {
	ts, m := newTestServer(t, managerConfig{MaxActive: 1})
	release := make(chan struct{})
	var ran sync.Map
	m.exec = func(spec api.JobSpec, eo api.ExecOptions) ([]report.Cell, error) {
		ran.Store(spec.Seed, true)
		<-release
		return nil, nil
	}
	defer close(release)
	spec := api.JobSpec{Kind: api.KindRun, Platform: "hams-LE", Workload: "seqRd"}
	blocker := submit(t, ts, spec)
	queued := spec
	queued.Seed = 7
	victim := submit(t, ts, queued)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+victim.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st := waitJob(t, ts, victim.ID); st.State != api.StateCanceled {
		t.Fatalf("canceled job state: %s", st.State)
	}
	if _, ok := ran.Load(int64(7)); ok {
		t.Fatal("canceled queued job still executed")
	}
	_ = blocker
}

// TestTraceUploadAndScenario: an uploaded container is addressable by
// ID from a scenario job's tenants.
func TestTraceUploadAndScenario(t *testing.T) {
	ts, _ := newTestServer(t, managerConfig{})
	var buf bytes.Buffer
	o := workload.DefaultOptions()
	o.Scale = 1e-7
	o.Seed = 42
	if _, err := replay.RecordWorkload(&buf, "seqRd", o, replay.AllThreads); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d: %s", resp.StatusCode, body)
	}
	var up struct {
		ID      string `json:"id"`
		Steps   int64  `json:"steps"`
		Threads int    `json:"threads"`
	}
	if err := json.Unmarshal(body, &up); err != nil {
		t.Fatal(err)
	}
	if up.ID == "" || up.Steps == 0 || up.Threads == 0 {
		t.Fatalf("upload response: %s", body)
	}
	st := submit(t, ts, api.JobSpec{Kind: api.KindScenario, Platform: "hams-LE",
		Name: "replayed", Tenants: []api.TenantSpec{{Trace: up.ID}}})
	final := waitJob(t, ts, st.ID)
	if final.State != api.StateDone {
		t.Fatalf("scenario job: %s (%s)", final.State, final.Error)
	}
	cells := fetchCells(t, ts, st.ID)
	if len(cells) != 1 || cells[0].Key != "mixed/replayed@hams-LE" {
		t.Fatalf("scenario cells: %+v", cells)
	}
	// A bogus reference fails the job with a useful error, not a hang.
	bad := submit(t, ts, api.JobSpec{Kind: api.KindScenario, Platform: "hams-LE",
		Tenants: []api.TenantSpec{{Trace: "upload-999"}}})
	if final := waitJob(t, ts, bad.ID); final.State != api.StateFailed ||
		!strings.Contains(final.Error, "unknown trace") {
		t.Fatalf("bogus trace job: %s (%s)", final.State, final.Error)
	}
}

// TestCheckpointUploadAndRestore: an uploaded checkpoint image is
// addressable by ID from a scenario job, and the restored job's cell
// is byte-identical to the same scenario run live with a warm-up
// phase — the restore≡live guarantee through the whole HTTP stack.
func TestCheckpointUploadAndRestore(t *testing.T) {
	ts, _ := newTestServer(t, managerConfig{})
	// Explicit tenant seeds keep the engine's per-cell seed derivation
	// out of the picture: the in-process warm-up below and the hamsd
	// job rebuild identical streams from the spec alone.
	spec := api.JobSpec{Kind: api.KindScenario, Platform: "hams-LE",
		Name: "restored", Scale: 1e-6,
		Tenants: []api.TenantSpec{{Name: "seqRd", Workload: "seqRd", Seed: 7}}}
	// seqRd at this scale runs ~300 steps/thread: warm up a third,
	// leaving a real measured phase to compare.
	const warmup = 100
	warmSpec := spec
	warmSpec.Warmup = warmup
	sc, err := warmSpec.Scenario(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	img, err := replay.Warmup(sc, replay.Options{Scale: spec.Scale})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := checkpoint.Encode(&buf, img); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/checkpoints", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d: %s", resp.StatusCode, body)
	}
	var up struct {
		ID       string `json:"id"`
		Platform string `json:"platform"`
		Warmup   int64  `json:"warmup"`
		Sections int    `json:"sections"`
	}
	if err := json.Unmarshal(body, &up); err != nil {
		t.Fatal(err)
	}
	if up.ID == "" || up.Platform != "hams-LE" || up.Warmup != warmup || up.Sections == 0 {
		t.Fatalf("upload response: %s", body)
	}

	restoredSpec := spec
	restoredSpec.Checkpoint = up.ID
	restored := waitJob(t, ts, submit(t, ts, restoredSpec).ID)
	if restored.State != api.StateDone {
		t.Fatalf("restored job: %s (%s)", restored.State, restored.Error)
	}
	live := waitJob(t, ts, submit(t, ts, warmSpec).ID)
	if live.State != api.StateDone {
		t.Fatalf("live job: %s (%s)", live.State, live.Error)
	}
	rc := fetchCells(t, ts, restored.ID)
	lc := fetchCells(t, ts, live.ID)
	if len(rc) != 1 || rc[0].Key != "mixed/restored@hams-LE" {
		t.Fatalf("restored cells: %+v", rc)
	}
	if rc[0].Extra["units:seqRd"] == 0 {
		t.Fatalf("restored cell has an empty measured phase: %+v", rc[0])
	}
	// Host wall-clock and its derived throughput are the only
	// nondeterministic cell fields.
	rc[0].WallNS, lc[0].WallNS = 0, 0
	rc[0].HostUnitsPerSec, lc[0].HostUnitsPerSec = 0, 0
	if !reflect.DeepEqual(rc, lc) {
		t.Fatalf("restored cell diverged from live phase-split run:\nrestored: %+v\nlive:     %+v", rc, lc)
	}

	// A bogus reference fails the job with a useful error, not a hang.
	badSpec := spec
	badSpec.Checkpoint = "ckpt-999"
	if final := waitJob(t, ts, submit(t, ts, badSpec).ID); final.State != api.StateFailed ||
		!strings.Contains(final.Error, "unknown checkpoint") {
		t.Fatalf("bogus checkpoint job: %s (%s)", final.State, final.Error)
	}

	// A malformed image is a 400 at upload time, never stored.
	resp, err = http.Post(ts.URL+"/v1/checkpoints", "application/octet-stream",
		strings.NewReader("HAMCgarbage"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed upload: %d", resp.StatusCode)
	}
}

// TestValidationReturns400: malformed bodies and specs produce the
// structured field-error JSON.
func TestValidationReturns400(t *testing.T) {
	ts, _ := newTestServer(t, managerConfig{})
	resp, body := postJSON(t, ts.URL+"/v1/jobs", api.JobSpec{Kind: "nope"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad kind: %d", resp.StatusCode)
	}
	var eb struct {
		Errors []struct {
			Field string `json:"field"`
			Error string `json:"error"`
		} `json:"errors"`
	}
	if err := json.Unmarshal(body, &eb); err != nil || len(eb.Errors) == 0 {
		t.Fatalf("400 body not structured: %s (%v)", body, err)
	}
	if eb.Errors[0].Field != "kind" {
		t.Fatalf("field = %q, want kind", eb.Errors[0].Field)
	}
	// A policy timeline scheduled at t=0 (or in the past) is rejected
	// up front — the initial table IS the t=0 state.
	spec := api.JobSpec{Kind: api.KindScenario, Platform: "hams-LE", Name: "pair",
		Tenants: []api.TenantSpec{{Name: "a", Workload: "rndRd", Class: "bulk"}},
		QoS:     []api.ClassSpec{{Name: "bulk"}},
		QoSPolicy: []api.PolicyChangeSpec{
			{AtNS: 0, Class: "bulk", WayMask: "0x1"},
		}}
	resp, body = postJSON(t, ts.URL+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("t=0 policy change: %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "qos_policy[0].at_ns") {
		t.Fatalf("400 body does not name the timeline field: %s", body)
	}
	// autoqos is qos's auto variant now; the old name is an unknown
	// target and the error lists the valid ones.
	resp, body = postJSON(t, ts.URL+"/v1/jobs", api.JobSpec{Kind: api.KindTarget, Targets: []string{"autoqos"}})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "targets[0]") ||
		!strings.Contains(string(body), "qos, mlp") {
		t.Fatalf("autoqos target: %d %s", resp.StatusCode, body)
	}
	// Unknown JSON fields are schema violations, not silently dropped.
	r2, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"run","platform":"hams-LE","workload":"seqRd","bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: %d", r2.StatusCode)
	}
	if code, _ := get(t, ts.URL+"/v1/jobs/job-999"); code != http.StatusNotFound {
		t.Fatalf("missing job: %d", code)
	}
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// TestStatsAndMetrics: both views exist and carry job counts and
// worker utilization.
func TestStatsAndMetrics(t *testing.T) {
	ts, _ := newTestServer(t, managerConfig{Workers: 2})
	st := submit(t, ts, api.JobSpec{Kind: api.KindRun, Platform: "hams-LE",
		Workload: "seqRd", Scale: 1e-8, Client: "ci"})
	waitJob(t, ts, st.ID)
	var stats statsSnapshot
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Jobs[api.StateDone] != 1 || stats.Workers != 2 {
		t.Fatalf("stats: %+v", stats)
	}
	cs, ok := stats.Clients["ci"]
	if !ok || cs.Done != 1 || cs.P50MS < 0 {
		t.Fatalf("client stats: %+v", stats.Clients)
	}
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, want := range []string{
		`hamsd_jobs{state="done"} 1`,
		"hamsd_workers 2",
		"hamsd_cells_completed_total",
		`hamsd_job_duration_ms{client="ci",quantile="0.5"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	if code, body := get(t, ts.URL+"/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", code, body)
	}
}

// TestExampleSpecsValidate: the committed walkthrough bodies stay
// valid and decodable under DisallowUnknownFields.
func TestExampleSpecsValidate(t *testing.T) {
	paths, err := filepath.Glob("../../examples/hamsd/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example specs found: %v", err)
	}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(f)
		dec.DisallowUnknownFields()
		var spec api.JobSpec
		if err := dec.Decode(&spec); err != nil {
			t.Errorf("%s: %v", path, err)
		}
		f.Close()
		if err := api.Validate(spec); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}

// TestEnvConfig: defaults, overrides, and malformed values.
func TestEnvConfig(t *testing.T) {
	env := func(m map[string]string) func(string) string {
		return func(k string) string { return m[k] }
	}
	cfg, err := envConfig(env(nil))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Addr != ":8080" || cfg.StatsPeriod != 10*time.Second ||
		cfg.DrainTimeout != 30*time.Second || cfg.LogFormat != "json" {
		t.Fatalf("defaults: %+v", cfg)
	}
	cfg, err = envConfig(env(map[string]string{
		"HAMSD_ADDR": ":9090", "HAMSD_WORKERS": "4", "HAMSD_MAX_JOBS": "2",
		"HAMSD_CLIENT_CAP": "8", "HAMSD_CLIENT_CAPS": "ci=8,adhoc=2",
		"HAMSD_STATS_PERIOD": "1s", "HAMSD_DRAIN_TIMEOUT": "5s", "HAMSD_LOG": "text",
	}))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Workers != 4 || cfg.MaxJobs != 2 || cfg.ClientCap != 8 ||
		cfg.ClientCaps["ci"] != 8 || cfg.ClientCaps["adhoc"] != 2 ||
		cfg.StatsPeriod != time.Second || cfg.LogFormat != "text" {
		t.Fatalf("overrides: %+v", cfg)
	}
	for name, bad := range map[string]map[string]string{
		"workers":     {"HAMSD_WORKERS": "-1"},
		"caps syntax": {"HAMSD_CLIENT_CAPS": "ci"},
		"caps value":  {"HAMSD_CLIENT_CAPS": "ci=lots"},
		"period":      {"HAMSD_STATS_PERIOD": "soon"},
		"log":         {"HAMSD_LOG": "xml"},
	} {
		if _, err := envConfig(env(bad)); err == nil {
			t.Errorf("%s: bad env accepted", name)
		}
	}
}
