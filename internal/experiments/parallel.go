package experiments

import (
	"context"
	"fmt"

	"hams/internal/platform"
	"hams/internal/report"
	"hams/internal/runner"
	"hams/internal/stats"
	"hams/internal/workload"
)

// cellJob is one engine cell of a figure: a stable key (unique within
// the target), the workload name whose seed stream the cell draws
// (empty = no randomness), and the work itself. fn receives the
// derived per-cell seed so results cannot depend on execution order.
type cellJob struct {
	key     string
	seedKey string
	fn      func(ctx context.Context, seed int64) (any, error)
}

// reportable lets non-RunResult cell outputs (e.g. Fig. 5 device
// sweeps) contribute metrics to the BENCH artifact.
type reportable interface{ reportCell() report.Cell }

// runCellJobs executes a target's cells through the worker-pool
// engine, records them into o.Recorder, and returns the outputs in
// canonical (input) order.
func runCellJobs(o Options, target string, jobs []cellJob) ([]any, error) {
	cells := make([]runner.Cell, len(jobs))
	for i, j := range jobs {
		seed := o.Seed
		if j.seedKey != "" {
			seed = runner.DeriveSeed(o.Seed, j.seedKey)
		}
		fn := j.fn
		cells[i] = runner.Cell{
			Key: target + "/" + j.key,
			Fn:  func(ctx context.Context) (any, error) { return fn(ctx, seed) },
		}
	}
	var cr runner.CellRunner = runner.Engine{Workers: o.Parallel, ShuffleSeed: o.Shuffle}
	if o.Runner != nil {
		cr = o.Runner
	}
	var onResult func(runner.Result)
	if o.Progress != nil {
		onResult = func(r runner.Result) { o.Progress(reportCellFor(target, r)) }
	}
	results, err := cr.RunCells(o.ctx(), cells, onResult)
	if err != nil {
		// Name a failing cell: in a 100+-cell matrix "unknown platform"
		// alone would leave the bad configuration to bisection.
		for _, r := range results {
			if r.Err != nil {
				return nil, fmt.Errorf("cell %s: %w", r.Key, r.Err)
			}
		}
		return nil, err
	}
	out := make([]any, len(results))
	for i, r := range results {
		out[i] = r.Value
		if o.Recorder != nil {
			o.Recorder.Add(reportCellFor(target, r))
		}
	}
	return out, nil
}

// reportCellFor converts one engine result into its artifact record.
// Cells with metrics implement reportable (matrix cells via matrixOut,
// device sweeps via fig5Point); anything else — the static tables —
// records identity and wall time only.
func reportCellFor(target string, r runner.Result) report.Cell {
	var c report.Cell
	if v, ok := r.Value.(reportable); ok {
		c = v.reportCell()
	}
	// The one sanctioned WallNS feed: the runner's measured wall time
	// enters the cell here on its way into Recorder.Add, which derives
	// HostUnitsPerSec from it; Canonical zeroes both again.
	//hamslint:allow statszero — engine→Recorder glue, the single sanctioned host-channel write
	c.Key, c.Target, c.WallNS = r.Key, target, int64(r.Wall)
	return c
}

// runReportCell extracts one Run's artifact metrics.
func runReportCell(v RunResult) report.Cell {
	return report.Cell{
		Platform:    v.Platform,
		Workload:    v.Workload,
		SimNS:       int64(v.CPU.Elapsed),
		Units:       v.Units,
		UnitsPerSec: v.UnitsPerSec(),
		HitRate:     v.MoS.HitRate(),
		EnergyJ:     v.Energy.Total(),
	}
}

// matrixCell is the common cell shape: one Run of a workload on a
// platform under a config.
type matrixCell struct {
	key      string
	platform string
	workload string
	popt     platform.Options
	wopt     *workload.Options
	// extra, when set, records target-specific metrics into the BENCH
	// cell.
	extra func(RunResult) map[string]float64
}

// matrixOut pairs a cell's RunResult with its artifact record.
type matrixOut struct {
	run  RunResult
	cell report.Cell
}

func (m matrixOut) reportCell() report.Cell { return m.cell }

// runMatrix executes a (platform × workload × config) matrix through
// the engine and returns RunResults in cell order. Each cell's
// workload seed derives from (Options.Seed, workload name), so the
// same workload stays stream-paired across platforms and configs —
// the paired-comparison property every "X vs Y" figure relies on.
func runMatrix(o Options, target string, cells []matrixCell) ([]RunResult, error) {
	jobs := make([]cellJob, len(cells))
	for i, c := range cells {
		mc := c
		mc.popt = o.applyMSHRs(mc.popt)
		jobs[i] = cellJob{
			key:     mc.key,
			seedKey: mc.workload,
			fn: func(ctx context.Context, seed int64) (any, error) {
				co := o
				co.Seed = seed
				wopt := mc.wopt
				if wopt != nil {
					w := *wopt
					w.Seed = seed
					wopt = &w
				}
				r, err := Run(mc.platform, mc.workload, co, mc.popt, wopt)
				if err != nil {
					return nil, err
				}
				out := matrixOut{run: r, cell: runReportCell(r)}
				if mc.extra != nil {
					out.cell.Extra = mc.extra(r)
				}
				return out, nil
			},
		}
	}
	vals, err := runCellJobs(o, target, jobs)
	if err != nil {
		return nil, err
	}
	out := make([]RunResult, len(vals))
	for i, v := range vals {
		mo, ok := v.(matrixOut)
		if !ok {
			return nil, fmt.Errorf("experiments: %s cell %s returned %T", target, cells[i].key, v)
		}
		out[i] = mo.run
	}
	return out, nil
}

// runGrid runs every workload on every column as one matrix cell
// keyed "<workload>/<column>" and returns the results row by row:
// res[w][c] is workload w on column c. A column names a platform run
// with default options, unless colPlatform maps it to a platform and
// options of its own (fig6's columns are the SSDs behind mmap).
func runGrid(o Options, target string, wls, cols []string,
	colPlatform func(col string) (string, platform.Options)) ([][]RunResult, error) {
	var cells []matrixCell
	for _, wl := range wls {
		for _, col := range cols {
			pn, popt := col, platform.Options{}
			if colPlatform != nil {
				pn, popt = colPlatform(col)
			}
			cells = append(cells, matrixCell{key: wl + "/" + col, platform: pn, workload: wl, popt: popt})
		}
	}
	res, err := runMatrix(o, target, cells)
	if err != nil {
		return nil, err
	}
	rows := make([][]RunResult, len(wls))
	for w := range rows {
		rows[w] = res[w*len(cols) : (w+1)*len(cols)]
	}
	return rows, nil
}

// RunOne executes a single workload × platform run as one engine cell
// (key "run/<workload>@<platform>") — the execution path of job-API
// `run` jobs and the hamssim CLI, shared so a flag set and a JSON body
// produce byte-identical runs. Unlike matrix cells the workload seed
// is Options.Seed itself (no per-cell derivation): a one-shot run has
// no sibling cells to stay decorrelated from, and hamssim's documented
// -seed semantics predate the engine.
func RunOne(o Options, platName, wlName string, popt platform.Options) (RunResult, error) {
	popt = o.applyMSHRs(popt)
	jobs := []cellJob{{
		key: wlName + "@" + platName,
		fn: func(ctx context.Context, seed int64) (any, error) {
			co := o
			co.Seed = seed
			r, err := Run(platName, wlName, co, popt, nil)
			if err != nil {
				return nil, err
			}
			return matrixOut{run: r, cell: runReportCell(r)}, nil
		},
	}}
	vals, err := runCellJobs(o, "run", jobs)
	if err != nil {
		return RunResult{}, err
	}
	mo, ok := vals[0].(matrixOut)
	if !ok {
		return RunResult{}, fmt.Errorf("experiments: run cell returned %T", vals[0])
	}
	return mo.run, nil
}

// StaticTables renders the paper's static tables (I-III) through the
// engine — each table is one cell, so even the static targets report
// wall time into the artifact and exercise the concurrent path.
func StaticTables(o Options, names ...string) ([]*stats.Table, error) {
	builders := map[string]func() *stats.Table{
		"table1": Table1, "table2": Table2, "table3": Table3,
	}
	jobs := make([]cellJob, len(names))
	for i, n := range names {
		build, ok := builders[n]
		if !ok {
			return nil, fmt.Errorf("experiments: unknown static table %q", n)
		}
		jobs[i] = cellJob{key: n, fn: func(ctx context.Context, seed int64) (any, error) {
			return build(), nil
		}}
	}
	vals, err := runCellJobs(o, "tables", jobs)
	if err != nil {
		return nil, err
	}
	out := make([]*stats.Table, len(vals))
	for i, v := range vals {
		out[i] = v.(*stats.Table)
	}
	return out, nil
}
