// Package report serializes experiment runs into versioned
// BENCH_<name>.json artifacts and diffs two artifacts for per-cell
// performance regressions. The schema is documented in EXPERIMENTS.md;
// CI commits a baseline artifact and fails the build when a cell's
// simulated throughput drops beyond a threshold.
package report

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// SchemaVersion identifies the artifact layout; Compare refuses to
// diff artifacts across schema versions.
const SchemaVersion = 1

// Cell is the per-cell record of an artifact: one (platform, workload,
// config) point of one target, with its simulated metrics and host
// cost.
type Cell struct {
	// Key is the cell's stable identity ("<target>/<cell path>");
	// Compare matches cells across artifacts by Key.
	Key      string `json:"key"`
	Target   string `json:"target"`
	Platform string `json:"platform,omitempty"`
	Workload string `json:"workload,omitempty"`
	// Scenario names the multi-tenant mix for `mixed` cells; per-tenant
	// latency percentiles ride in Extra (see EXPERIMENTS.md).
	Scenario string `json:"scenario,omitempty"`
	// WallNS is host wall time spent producing the cell. It is
	// nondeterministic and is zeroed by Canonical.
	WallNS int64 `json:"wall_ns"`
	// HostUnitsPerSec is host-side throughput — work items per second
	// of wall clock (Units / WallNS). It measures the simulator, not
	// the simulated system, and is gated separately by `hamsbench
	// compare -host-threshold` with a loose, regression-only bar.
	// Nondeterministic; zeroed by Canonical. Only meaningful for
	// hermetic cells (serial runs, Workers == 1): under parallel
	// workers the wall times are contended and incomparable.
	HostUnitsPerSec float64 `json:"host_units_per_sec,omitempty"`
	// SimNS is the simulated elapsed time of the run.
	SimNS int64 `json:"sim_ns,omitempty"`
	// Units and UnitsPerSec are work items (pages or SQL ops) and
	// simulated throughput; UnitsPerSec is what Compare gates on.
	Units       int64   `json:"units,omitempty"`
	UnitsPerSec float64 `json:"units_per_sec,omitempty"`
	HitRate     float64 `json:"hit_rate,omitempty"`
	EnergyJ     float64 `json:"energy_j,omitempty"`
	// Extra carries target-specific metrics (e.g. Fig. 5 latency).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Artifact is one serialized harness invocation.
type Artifact struct {
	Schema  int       `json:"schema"`
	Name    string    `json:"name"`
	GitRev  string    `json:"git_rev,omitempty"`
	Created time.Time `json:"created_at,omitempty"`
	Scale   float64   `json:"scale"`
	Seed    int64     `json:"seed"`
	Workers int       `json:"workers,omitempty"`
	Cells   []Cell    `json:"cells"`
}

// Canonical returns a copy with every volatile field zeroed: creation
// time, git revision, worker count, and per-cell host wall times. Two
// runs of the same code at the same scale/seed must produce identical
// Canonical artifacts regardless of parallelism — the determinism
// tests compare these bytes.
func (a Artifact) Canonical() Artifact {
	a.Created = time.Time{}
	a.GitRev = ""
	a.Workers = 0
	a.Cells = CanonicalCells(a.Cells)
	return a
}

// CanonicalJSON renders the canonical form for byte comparison.
func (a Artifact) CanonicalJSON() ([]byte, error) {
	return json.MarshalIndent(a.Canonical(), "", "  ")
}

// GitRev reports the VCS revision baked into the binary, or "" when
// built without VCS stamping (e.g. go test).
func GitRev() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	rev, modified := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value == "true"
		}
	}
	if rev != "" && modified {
		rev += "+dirty"
	}
	return rev
}

// Recorder collects cells from concurrent targets; the engine appends
// results in canonical order, so a Recorder filled from sequential
// target runs is deterministic.
type Recorder struct {
	mu    sync.Mutex
	cells []Cell
}

// Add appends one cell record, deriving the host-throughput channel
// from the cell's wall time and unit count.
func (r *Recorder) Add(c Cell) {
	if c.WallNS > 0 && c.Units > 0 && c.HostUnitsPerSec == 0 {
		c.HostUnitsPerSec = float64(c.Units) / (float64(c.WallNS) / 1e9)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cells = append(r.cells, c)
}

// Len reports how many cells have been recorded.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.cells)
}

// Cells returns a copy of the recorded cells in record order.
func (r *Recorder) Cells() []Cell {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Cell, len(r.cells))
	copy(out, r.cells)
	return out
}

// CanonicalCells returns a copy of cells with the volatile host-side
// fields zeroed, the per-cell analogue of Artifact.Canonical: two runs
// of the same configuration must produce byte-identical canonical cell
// sets regardless of host timing or how the cells were submitted (CLI
// flags vs the job API) — the parity contract the api tests pin.
func CanonicalCells(cells []Cell) []Cell {
	out := make([]Cell, len(cells))
	copy(out, cells)
	for i := range out {
		out[i].WallNS = 0
		out[i].HostUnitsPerSec = 0
	}
	return out
}

// Artifact assembles the recorded cells into an artifact.
func (r *Recorder) Artifact(name string, scale float64, seed int64, workers int) Artifact {
	r.mu.Lock()
	cells := make([]Cell, len(r.cells))
	copy(cells, r.cells)
	r.mu.Unlock()
	return Artifact{
		Schema:  SchemaVersion,
		Name:    name,
		GitRev:  GitRev(),
		Created: time.Now().UTC(),
		Scale:   scale,
		Seed:    seed,
		Workers: workers,
		Cells:   cells,
	}
}

// WriteFile serializes an artifact to path.
func WriteFile(path string, a Artifact) error {
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Load reads an artifact from path.
func Load(path string) (Artifact, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Artifact{}, err
	}
	var a Artifact
	if err := json.Unmarshal(b, &a); err != nil {
		return Artifact{}, fmt.Errorf("report: %s: %w", path, err)
	}
	return a, nil
}

// Regression is one cell whose throughput dropped beyond the
// threshold, or that disappeared from the new artifact.
type Regression struct {
	Key     string
	Base    float64 // baseline units/sec
	New     float64 // new units/sec; 0 with Missing set
	Delta   float64 // fractional drop, (Base-New)/Base
	Missing bool    // cell present in base but absent from new
}

func (r Regression) String() string {
	if r.Missing {
		return fmt.Sprintf("%s: cell missing from new artifact (base %.1f units/s)", r.Key, r.Base)
	}
	return fmt.Sprintf("%s: %.1f -> %.1f units/s (-%.1f%%)", r.Key, r.Base, r.New, r.Delta*100)
}

// Delta is one cell's base-vs-new throughput comparison.
type Delta struct {
	Key  string
	Base float64 // baseline units/sec
	New  float64 // new units/sec; 0 with Missing set
	// Drop is the fractional throughput drop, (Base-New)/Base:
	// positive means the new artifact is slower.
	Drop    float64
	Missing bool // cell present in base but absent from new
}

// Deltas diffs two artifacts cell-by-cell, returning one row per
// baseline cell with throughput, sorted by key. Cells without
// throughput (static tables, latency-only panels) are skipped.
// Comparing different scales, seeds, or schema versions is an error —
// the throughputs would not be commensurable.
func Deltas(base, cur Artifact) ([]Delta, error) {
	if err := commensurable(base, cur); err != nil {
		return nil, err
	}
	return diff(base, cur, func(c Cell) float64 { return c.UnitsPerSec }, false), nil
}

// HostDeltas diffs the host-side throughput channel (wall-clock
// units/sec — the simulator's own speed). Unlike Deltas it is
// regression-only and deliberately forgiving: cells missing a host
// reading on either side are skipped, never flagged (profiled runs,
// pre-channel baselines), and the gate only applies to hermetic
// artifacts — both runs serial (Workers <= 1), since wall times
// measured under parallel workers are contended and incomparable.
func HostDeltas(base, cur Artifact) ([]Delta, error) {
	if err := commensurable(base, cur); err != nil {
		return nil, err
	}
	if base.Workers != 1 || cur.Workers != 1 {
		return nil, fmt.Errorf("report: host-throughput gate needs serial artifacts (-parallel 1): base workers=%d, new workers=%d",
			base.Workers, cur.Workers)
	}
	return diff(base, cur, func(c Cell) float64 { return c.HostUnitsPerSec }, true), nil
}

// commensurable rejects a pair of artifacts whose readings cannot be
// compared: different schema versions, scales or seeds.
func commensurable(base, cur Artifact) error {
	if base.Schema != cur.Schema {
		return fmt.Errorf("report: schema mismatch: base v%d vs new v%d", base.Schema, cur.Schema)
	}
	if base.Scale != cur.Scale || base.Seed != cur.Seed {
		return fmt.Errorf("report: incomparable artifacts: base scale=%g seed=%d vs new scale=%g seed=%d",
			base.Scale, base.Seed, cur.Scale, cur.Seed)
	}
	return nil
}

// diff matches every baseline cell with a positive metric reading
// against cur by key and returns the rows sorted by key. A baseline
// cell missing from cur is flagged Missing, unless skipUnread is set:
// then cells that cur lacks or reads no metric for are skipped.
func diff(base, cur Artifact, metric func(Cell) float64, skipUnread bool) []Delta {
	curBy := make(map[string]Cell, len(cur.Cells))
	for _, c := range cur.Cells {
		curBy[c.Key] = c
	}
	var ds []Delta
	for _, b := range base.Cells {
		bv := metric(b)
		if bv <= 0 {
			continue
		}
		c, ok := curBy[b.Key]
		if skipUnread && metric(c) <= 0 {
			continue
		}
		if !ok {
			ds = append(ds, Delta{Key: b.Key, Base: bv, Missing: true})
			continue
		}
		cv := metric(c)
		ds = append(ds, Delta{Key: b.Key, Base: bv, New: cv, Drop: (bv - cv) / bv})
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].Key < ds[j].Key })
	return ds
}

// SetDiff reports how two artifacts' cell-key sets diverge: keys
// present only in cur (added) and only in base (removed), both
// sorted. Unlike Deltas it covers every cell — including
// throughput-free ones — so the compare gate can refuse a comparison
// whose baseline no longer describes the candidate's target list
// instead of silently skipping the unmatched cells.
func SetDiff(base, cur Artifact) (added, removed []string) {
	baseBy := make(map[string]bool, len(base.Cells))
	for _, c := range base.Cells {
		baseBy[c.Key] = true
	}
	curBy := make(map[string]bool, len(cur.Cells))
	for _, c := range cur.Cells {
		curBy[c.Key] = true
		if !baseBy[c.Key] {
			added = append(added, c.Key)
		}
	}
	for _, c := range base.Cells {
		if !curBy[c.Key] {
			removed = append(removed, c.Key)
		}
	}
	sort.Strings(added)
	sort.Strings(removed)
	return added, removed
}

// Threshold filters deltas down to the regressions: cells whose drop
// exceeds the threshold (a fraction, e.g. 0.15) and cells that
// vanished from the new artifact.
func Threshold(ds []Delta, threshold float64) []Regression {
	var regs []Regression
	for _, d := range ds {
		if d.Missing {
			regs = append(regs, Regression{Key: d.Key, Base: d.Base, Missing: true})
		} else if d.Drop > threshold {
			regs = append(regs, Regression{Key: d.Key, Base: d.Base, New: d.New, Delta: d.Drop})
		}
	}
	return regs
}

// Compare returns every baseline cell whose simulated throughput
// regressed by more than threshold in cur, plus cells that vanished.
func Compare(base, cur Artifact, threshold float64) ([]Regression, error) {
	ds, err := Deltas(base, cur)
	if err != nil {
		return nil, err
	}
	return Threshold(ds, threshold), nil
}

// Markdown renders a delta table as GitHub-flavored markdown for CI
// step summaries: every compared cell with its throughput change,
// regressions beyond the threshold flagged, and a one-line verdict.
func Markdown(title string, ds []Delta, threshold float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s\n\n", title)
	if len(ds) == 0 {
		b.WriteString("No comparable cells (baseline has no throughput records).\n")
		return b.String()
	}
	b.WriteString("| cell | baseline u/s | new u/s | delta |\n")
	b.WriteString("|---|---:|---:|---:|\n")
	regressed := 0
	for _, d := range ds {
		if d.Missing {
			regressed++
			fmt.Fprintf(&b, "| %s | %.1f | — | ⚠️ missing |\n", d.Key, d.Base)
			continue
		}
		mark := ""
		if d.Drop > threshold {
			regressed++
			mark = " ⚠️"
		}
		chg := -d.Drop * 100
		if chg == 0 {
			chg = 0 // normalize -0.0 from exact-match cells
		}
		fmt.Fprintf(&b, "| %s | %.1f | %.1f | %+.1f%%%s |\n", d.Key, d.Base, d.New, chg, mark)
	}
	if regressed > 0 {
		fmt.Fprintf(&b, "\n**%d of %d cell(s) regressed beyond %.0f%%.**\n", regressed, len(ds), threshold*100)
	} else {
		fmt.Fprintf(&b, "\n%d cell(s) compared, none regressed beyond %.0f%%.\n", len(ds), threshold*100)
	}
	return b.String()
}
