package experiments

import (
	"fmt"

	"hams/internal/stats"
)

// This file is the single name→target dispatch table. It used to live
// in cmd/hamsbench; it moved here so the CLI and the job API
// (internal/api) resolve and run the exact same target set — a
// hamsbench invocation and a POST /v1/jobs body naming the same
// targets produce byte-identical BENCH cells.

// TargetNames lists every experiment target in canonical order (the
// order `all` expands to).
func TargetNames() []string {
	return []string{"table1", "table2", "table3", "fig5", "fig6", "fig7",
		"fig10", "fig16", "fig17", "fig18", "fig19", "fig20", "headline",
		"ablation", "sweep", "replay", "mixed", "qos", "mlp", "sampled"}
}

// KnownTarget reports whether RunTarget accepts the name.
func KnownTarget(name string) bool {
	for _, t := range TargetNames() {
		if t == name {
			return true
		}
	}
	return false
}

// ExpandTargets resolves "all" and drops repeats (first occurrence
// wins): a target run twice would record duplicate cell keys into the
// artifact, breaking the key-uniqueness the compare gate relies on.
func ExpandTargets(targets []string) []string {
	seen := make(map[string]bool)
	var out []string
	add := func(t string) {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	for _, tgt := range targets {
		if tgt == "all" {
			for _, t := range TargetNames() {
				add(t)
			}
			continue
		}
		add(tgt)
	}
	return out
}

// RunTarget executes one named target and returns its rendered
// tables plus its markdown summary ("" for targets without one); cells
// land in o.Recorder when set.
func RunTarget(name string, o Options) ([]*stats.Table, string, error) {
	var tables []*stats.Table
	var err error
	one := func(t *stats.Table, e error) { tables, err = []*stats.Table{t}, e }
	switch name {
	case "table1", "table2", "table3":
		tables, err = StaticTables(o, name)
	case "fig5":
		tables, err = Fig5(o)
	case "fig6":
		tables, err = Fig6(o)
	case "fig7":
		tables, err = Fig7(o)
	case "fig10":
		one(Fig10(o))
	case "fig16":
		tables, err = Fig16(o)
	case "fig17":
		one(Fig17(o))
	case "fig18":
		one(Fig18(o))
	case "fig19":
		one(Fig19(o))
	case "fig20":
		tables, err = Fig20(o)
	case "headline":
		one(Headline(o))
	case "ablation":
		one(Ablation(o))
	case "sweep":
		tables, err = AssocShardSweep(o)
	case "mlp":
		tables, err = MLPSweep(o)
	case "replay":
		tables, err = Replay(o)
	case "mixed":
		tables, err = Mixed(o)
	case "qos":
		return QoS(o)
	case "sampled":
		return Sampled(o)
	default:
		err = fmt.Errorf("experiments: unknown target %q", name)
	}
	return tables, "", err
}
