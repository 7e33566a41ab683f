// Package api defines the versioned, serializable job-description
// schema shared by every front end of the simulator: the hamsd HTTP
// daemon decodes JobSpec from POST /v1/jobs bodies, and the CLIs
// (hamsbench, hamssim, hamstrace) assemble the same JobSpec from their
// flags — so a flag set and a JSON body are one decode path and
// produce byte-identical runs (pinned by the CLI-vs-API parity tests).
//
// The package owns three things:
//
//   - the wire types (JobSpec, TenantSpec, ClassSpec, JobStatus) and
//     their schema version;
//   - Validate, the single structured-field-error validator — CLIs
//     render its errors to stderr and exit 2, hamsd returns them as
//     HTTP 400 JSON;
//   - the builders (PlatformOptions, Scenario, ExperimentOptions) and
//     Execute, which turn a validated spec into platform options,
//     replay scenarios and experiment cells.
//
// Schema versioning follows the trace-v2 container rules (see
// EXPERIMENTS.md): the version only bumps on incompatible layout
// changes; decoders accept the current version (and 0, meaning
// "current") and refuse anything else with a field error rather than
// guessing.
package api

import (
	"fmt"
	"os"
	"time"

	"hams/internal/checkpoint"
	"hams/internal/trace"
)

// SchemaVersion identifies the JobSpec wire layout. A spec carrying 0
// is read as the current version (hand-written curl bodies omit it);
// any other mismatch is a validation error.
const SchemaVersion = 1

// Job kinds: what a JobSpec asks the engine to do.
const (
	// KindRun is one workload on one platform — the hamssim shape.
	KindRun = "run"
	// KindScenario is a multi-tenant replay scenario (synthetic
	// workloads and/or uploaded traces co-located on one platform) —
	// the hamstrace-replay / mixed shape.
	KindScenario = "scenario"
	// KindTarget runs named experiment targets (fig5, mixed, qos, …)
	// — the hamsbench shape; one job may emit many cells.
	KindTarget = "target"
)

// JobSpec is the versioned job description. Exactly one kind's field
// group applies; Validate rejects cross-kind field use so a malformed
// body fails loudly instead of being half-ignored.
type JobSpec struct {
	// Schema is the wire-layout version (0 = current; see
	// SchemaVersion).
	Schema int `json:"schema,omitempty"`
	// Kind selects the job shape: run, scenario, or target.
	Kind string `json:"kind"`
	// Client names the submitter's class of service for hamsd
	// admission control (per-client in-flight caps — the same tenancy
	// notion as the QoS CLOS table). Empty = the default class.
	Client string `json:"client,omitempty"`

	// Scale multiplies Table III instruction counts (0 = the CLI
	// default, 3e-6). Seed fixes workload randomness (0 = 42).
	Scale float64 `json:"scale,omitempty"`
	Seed  int64   `json:"seed,omitempty"`
	// Parallel is the engine worker count for this job (0 =
	// GOMAXPROCS, 1 = serial). Ignored when the executor supplies a
	// shared pool (hamsd).
	Parallel int `json:"parallel,omitempty"`

	// Platform knobs (kinds run and scenario; see platform.Options).
	Platform   string `json:"platform,omitempty"`
	PageBytes  uint64 `json:"page_bytes,omitempty"`
	Ways       int    `json:"ways,omitempty"`
	Banks      int    `json:"banks,omitempty"`
	Policy     string `json:"policy,omitempty"`
	MSHRs      int    `json:"mshrs,omitempty"`
	QueueDepth int    `json:"queue_depth,omitempty"`
	NVDIMM     uint64 `json:"nvdimm_bytes,omitempty"`

	// Workload names the Table III workload of a run job.
	Workload string `json:"workload,omitempty"`

	// Targets lists experiment targets of a target job ("all"
	// expands).
	Targets []string `json:"targets,omitempty"`

	// QoSMasks / QoSMBps assign per-class way masks (hex like "0xfc",
	// binary like "0b1010", or "full") and archive-bandwidth caps in
	// MB/s. For target jobs they override the qos target's isolated
	// policy (hamsbench -qos-masks/-qos-mbps); for run jobs they bound
	// the whole workload as a single class of service (hamssim
	// -qos-mask/-qos-mbps, at most one class name).
	QoSMasks map[string]string  `json:"qos_masks,omitempty"`
	QoSMBps  map[string]float64 `json:"qos_mbps,omitempty"`

	// Scenario jobs: Name labels the scenario, Tenants are its
	// traffic sources, QoS is its CLOS table.
	Name    string       `json:"name,omitempty"`
	Tenants []TenantSpec `json:"tenants,omitempty"`
	QoS     []ClassSpec  `json:"qos,omitempty"`

	// Checkpoint references a platform checkpoint image to restore the
	// scenario from instead of running a warm-up phase: an uploaded
	// checkpoint ID under hamsd (POST /v1/checkpoints), a file path
	// under the CLIs (CheckpointResolver decides). The image carries
	// its own warm-up length, so Checkpoint and Warmup are mutually
	// exclusive. Scenario jobs only. Added in schema v1's lifetime as
	// a purely additive field, like QoSPolicy.
	Checkpoint string `json:"checkpoint,omitempty"`
	// Warmup splits a scenario run into a warm-up phase (each tenant
	// thread's first Warmup steps, statistics discarded) and a
	// measured phase that alone is reported — replay.Scenario.Warmup.
	// Scenario jobs only; additive.
	Warmup int64 `json:"warmup,omitempty"`

	// QoSPolicy schedules runtime class reprogrammings on the
	// simulated clock (kinds run and scenario). Entries must be
	// strictly after t=0 — the initial table IS the t=0 state — and
	// nondecreasing in time; each change rewrites one class's way mask
	// and bandwidth cap mid-run with CAT/MBA-MSR semantics (next
	// victim selection; accrued throttle debt kept). Added in schema
	// v1's lifetime as a purely additive field: absent means no
	// timeline, so v1 decoders and encoders interoperate unchanged.
	QoSPolicy []PolicyChangeSpec `json:"qos_policy,omitempty"`
	// SLO attaches the AIMD feedback controller. For scenario jobs
	// Class names the victim tenant class to defend; for target jobs
	// it requires the qos target, whose auto variant it tunes: Class
	// stays empty — the target owns its victim — and only the p99
	// objective applies. Additive, like QoSPolicy.
	SLO *SLOSpec `json:"slo,omitempty"`
}

// PolicyChangeSpec is one scheduled runtime reprogramming of a QoS
// class (the wire form of replay.PolicyChange).
type PolicyChangeSpec struct {
	// AtNS is the simulated time of the change in nanoseconds
	// (strictly positive; the schedule is nondecreasing).
	AtNS int64 `json:"at_ns"`
	// Class names the class to reprogram.
	Class string `json:"class"`
	// WayMask is the new CAT capacity mask in its CLI/wire spelling
	// ("0xfc", "0b1010"); empty or "full" means all ways.
	WayMask string `json:"way_mask,omitempty"`
	// MBps is the new MBA-style archive-bandwidth cap (0 =
	// unthrottled).
	MBps float64 `json:"mbps,omitempty"`
}

// SLOSpec is the wire form of the feedback controller's objective
// (qos.SLO with only the victim class and the p99 target exposed; the
// AIMD actuation bounds keep their library defaults).
type SLOSpec struct {
	Class       string `json:"class,omitempty"`
	TargetP99NS int64  `json:"target_p99_ns"`
}

// TenantSpec is one traffic source of a scenario job: exactly one of
// Workload (synthetic Table III) or Trace (a recorded container) is
// set. It mirrors replay.Tenant field-for-field; see that type for
// semantics.
type TenantSpec struct {
	// Name labels the tenant (unique within the scenario). An unnamed
	// tenant is allowed only as the scenario's sole, trace-backed
	// entry: it expands to one tenant per recorded tenant label, the
	// hamstrace-replay behavior.
	Name     string `json:"name,omitempty"`
	Workload string `json:"workload,omitempty"`
	// Trace references a recorded v2 container: an uploaded-trace ID
	// under hamsd, a file path under the CLIs (TraceResolver decides).
	Trace      string  `json:"trace,omitempty"`
	TraceLabel string  `json:"trace_label,omitempty"`
	Class      string  `json:"class,omitempty"`
	Seed       int64   `json:"seed,omitempty"`
	Base       uint64  `json:"base,omitempty"`
	Scale      float64 `json:"scale,omitempty"`
	HotBytes   uint64  `json:"hot_bytes,omitempty"`
	HotFrac    float64 `json:"hot_fraction,omitempty"`
}

// ClassSpec is one CLOS of a scenario job's QoS table (qos.Class with
// the mask in its CLI/wire spelling).
type ClassSpec struct {
	Name string `json:"name"`
	// WayMask is the CAT capacity mask ("0xfc", "0b1010"); empty or
	// "full" means all ways.
	WayMask string `json:"way_mask,omitempty"`
	// MBps is the MBA-style archive-bandwidth cap (0 = unthrottled).
	MBps float64 `json:"mbps,omitempty"`
}

// Job states reported by JobStatus.State.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// JobStatus is the wire form of one submitted job's lifecycle, served
// by GET /v1/jobs/{id} and returned by POST /v1/jobs.
type JobStatus struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Kind   string `json:"kind"`
	Client string `json:"client,omitempty"`
	// Cells counts result cells produced so far (streamable at
	// GET /v1/jobs/{id}/cells before the job finishes).
	Cells     int       `json:"cells"`
	Submitted time.Time `json:"submitted_at,omitzero"`
	Started   time.Time `json:"started_at,omitzero"`
	Finished  time.Time `json:"finished_at,omitzero"`
	Error     string    `json:"error,omitempty"`
}

// TraceResolver turns a TenantSpec.Trace reference into a decoded
// container. hamsd resolves IDs against its upload store; the CLIs
// resolve file paths (FileTraces).
type TraceResolver interface {
	Trace(ref string) (*trace.File, error)
}

// FileTraces resolves trace references as filesystem paths — the CLI
// side of the TraceResolver seam.
type FileTraces struct{}

// Trace opens and decodes the container at path ref.
func (FileTraces) Trace(ref string) (*trace.File, error) {
	f, err := os.Open(ref)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tf, err := trace.Decode(f)
	if err != nil {
		return nil, fmt.Errorf("api: trace %s: %w", ref, err)
	}
	return tf, nil
}

// CheckpointResolver turns a JobSpec.Checkpoint reference into a
// decoded platform image. hamsd resolves IDs against its upload store
// — by ID only, the same no-arbitrary-file rule as traces; the CLIs
// resolve file paths (FileCheckpoints).
type CheckpointResolver interface {
	Checkpoint(ref string) (*checkpoint.Image, error)
}

// FileCheckpoints resolves checkpoint references as filesystem paths —
// the CLI side of the CheckpointResolver seam.
type FileCheckpoints struct{}

// Checkpoint opens and decodes the image at path ref.
func (FileCheckpoints) Checkpoint(ref string) (*checkpoint.Image, error) {
	f, err := os.Open(ref)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	img, err := checkpoint.Decode(f)
	if err != nil {
		return nil, fmt.Errorf("api: checkpoint %s: %w", ref, err)
	}
	return img, nil
}
