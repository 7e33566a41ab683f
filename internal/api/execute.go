package api

import (
	"context"
	"fmt"

	"hams/internal/experiments"
	"hams/internal/replay"
	"hams/internal/report"
	"hams/internal/runner"
)

// ExecOptions carries the execution environment of one job — the
// pieces that belong to the host (hamsd or a CLI), not to the spec.
type ExecOptions struct {
	// Ctx cancels dispatch of pending cells; nil = Background.
	Ctx context.Context
	// Runner, when set, executes cell batches on a shared pool instead
	// of a per-job engine (hamsd). nil honors spec.Parallel.
	Runner runner.CellRunner
	// Traces resolves TenantSpec.Trace references; nil fails any
	// trace-backed scenario.
	Traces TraceResolver
	// Checkpoints resolves JobSpec.Checkpoint references; nil fails
	// any checkpoint-backed scenario.
	Checkpoints CheckpointResolver
	// Progress fires once per completed cell, in completion order,
	// possibly concurrently (see experiments.Options.Progress).
	Progress func(report.Cell)
}

// Execute runs a validated JobSpec to completion and returns every
// result cell in canonical order. This is the one execution path
// behind hamsd jobs; the CLIs call the same builders plus the same
// experiments entry points, so for equal specs the cell sets are
// byte-identical (pinned by the parity tests).
func Execute(spec JobSpec, eo ExecOptions) ([]report.Cell, error) {
	o, err := spec.ExperimentOptions()
	if err != nil {
		return nil, err
	}
	rec := &report.Recorder{}
	o.Recorder = rec
	o.Ctx = eo.Ctx
	o.Runner = eo.Runner
	o.Progress = eo.Progress

	switch spec.Kind {
	case KindRun:
		popt, err := spec.PlatformOptions()
		if err != nil {
			return nil, err
		}
		if _, err := experiments.RunOne(o, spec.Platform, spec.Workload, popt); err != nil {
			return nil, err
		}
	case KindScenario:
		sc, err := spec.Scenario(eo.Traces, eo.Checkpoints)
		if err != nil {
			return nil, err
		}
		if _, err := experiments.RunScenarios(o, []replay.Scenario{sc}); err != nil {
			return nil, err
		}
	case KindTarget:
		for _, name := range experiments.ExpandTargets(spec.Targets) {
			if _, _, err := experiments.RunTarget(name, o); err != nil {
				return nil, fmt.Errorf("target %s: %w", name, err)
			}
		}
	default:
		return nil, fmt.Errorf("api: unknown kind %q", spec.Kind)
	}
	return rec.Cells(), nil
}
