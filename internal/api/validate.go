package api

import (
	"fmt"
	"slices"
	"strings"

	"hams/internal/core/tagstore"
	"hams/internal/experiments"
	"hams/internal/platform"
	"hams/internal/qos"
	"hams/internal/workload"
)

// FieldError names one malformed JobSpec field. Field is the JSON
// field path ("mshrs", "tenants[2].workload"); CLIs map it back to
// their flag spelling when rendering.
type FieldError struct {
	Field string `json:"field"`
	Msg   string `json:"error"`
}

func (e FieldError) Error() string { return e.Field + ": " + e.Msg }

// Errors is the full set of field errors of one Validate call. hamsd
// serializes it into the HTTP 400 body; CLIs print one line per entry.
type Errors []FieldError

func (es Errors) Error() string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = e.Error()
	}
	return strings.Join(parts, "; ")
}

// AsErrors unwraps an error into field errors, wrapping non-Validate
// errors under a catch-all field so every failure renders uniformly.
func AsErrors(err error) Errors {
	if err == nil {
		return nil
	}
	if es, ok := err.(Errors); ok {
		return es
	}
	return Errors{{Field: "spec", Msg: err.Error()}}
}

// Validate checks a JobSpec structurally — every malformed-input case
// the CLIs used to reject ad hoc with exit 2 — and returns nil or an
// Errors value listing every problem at once (a curl user should not
// fix fields one 400 at a time). It is pure: nothing is constructed,
// no trace references are resolved (the resolver does that at execute
// or upload time), so it is safe to call on every request.
func Validate(spec JobSpec) error {
	var es Errors
	add := func(field, format string, args ...any) {
		es = append(es, FieldError{Field: field, Msg: fmt.Sprintf(format, args...)})
	}

	if spec.Schema != 0 && spec.Schema != SchemaVersion {
		add("schema", "unsupported schema version %d (this build speaks %d)", spec.Schema, SchemaVersion)
	}
	switch spec.Kind {
	case KindRun, KindScenario, KindTarget:
	case "":
		add("kind", "required: one of %q, %q, %q", KindRun, KindScenario, KindTarget)
	default:
		add("kind", "unknown kind %q (want %q, %q or %q)", spec.Kind, KindRun, KindScenario, KindTarget)
	}
	if spec.Scale < 0 {
		add("scale", "want a non-negative scale, got %g", spec.Scale)
	}
	if spec.Seed < 0 {
		add("seed", "want a non-negative seed, got %d", spec.Seed)
	}
	if spec.Parallel < 0 {
		add("parallel", "want a non-negative worker count, got %d", spec.Parallel)
	}
	if spec.Ways < 0 {
		add("ways", "want a non-negative associativity, got %d", spec.Ways)
	}
	if spec.Banks < 0 {
		add("banks", "want a non-negative bank count, got %d", spec.Banks)
	}
	if spec.MSHRs < 0 {
		add("mshrs", "want a non-negative depth, got %d", spec.MSHRs)
	}
	if spec.QueueDepth < 0 {
		add("queue_depth", "want a non-negative cap, got %d", spec.QueueDepth)
	}
	if _, err := tagstore.ParsePolicy(spec.Policy); err != nil {
		add("policy", "%v", err)
	}

	// Per-class QoS assignment values are syntax-checked for every
	// kind; which classes they may address is kind-specific below.
	masks := make(map[string]uint64, len(spec.QoSMasks))
	for _, name := range qos.AssignmentNames(spec.QoSMasks) {
		if name == "" {
			add("qos_masks", "empty class name")
			continue
		}
		m, err := qos.ParseMask(spec.QoSMasks[name])
		if err != nil {
			add("qos_masks", "class %q: %v", name, err)
			continue
		}
		masks[name] = m
	}
	mbps := make(map[string]float64, len(spec.QoSMBps))
	for name, v := range spec.QoSMBps {
		if name == "" {
			add("qos_mbps", "empty class name")
			continue
		}
		if v <= 0 {
			add("qos_mbps", "class %q: want a positive MB/s value, got %g", name, v)
			continue
		}
		mbps[name] = v
	}

	// Policy-timeline entries are syntax-checked for every kind; which
	// classes they may address is kind-specific below.
	var prevAt int64
	for i, ch := range spec.QoSPolicy {
		field := fmt.Sprintf("qos_policy[%d]", i)
		if ch.AtNS <= 0 {
			add(field+".at_ns", "change scheduled at %dns; changes must be strictly after t=0 (the initial table is the t=0 state — past-time changes are rejected, never applied late)", ch.AtNS)
		} else if ch.AtNS < prevAt {
			add(field+".at_ns", "change at %dns is before the previous change at %dns (schedule must be nondecreasing)", ch.AtNS, prevAt)
		} else {
			prevAt = ch.AtNS
		}
		if ch.Class == "" {
			add(field+".class", "required")
		}
		if _, err := qos.ParseMask(ch.WayMask); err != nil {
			add(field+".way_mask", "%v", err)
		}
		if ch.MBps < 0 {
			add(field+".mbps", "want a non-negative MB/s value, got %g", ch.MBps)
		}
	}
	if spec.SLO != nil && spec.SLO.TargetP99NS <= 0 {
		add("slo.target_p99_ns", "want a positive p99 objective in ns, got %d", spec.SLO.TargetP99NS)
	}
	if spec.Warmup < 0 {
		add("warmup", "want a non-negative warm-up length in steps, got %d", spec.Warmup)
	}
	// A checkpoint image records its own warm-up length; restating one
	// alongside it is either redundant or contradictory, so the wire
	// contract keeps them exclusive.
	if spec.Checkpoint != "" && spec.Warmup != 0 {
		add("warmup", "mutually exclusive with checkpoint (the image records its own warm-up)")
	}

	switch spec.Kind {
	case KindRun:
		if spec.Platform == "" {
			add("platform", "required for run jobs")
		} else if !platform.Known(spec.Platform) {
			add("platform", "unknown platform %q (have %s)", spec.Platform, strings.Join(platform.AllNames(), ", "))
		}
		if spec.Workload == "" {
			add("workload", "required for run jobs")
		} else if _, err := workload.ByName(spec.Workload); err != nil {
			add("workload", "%v", err)
		}
		if len(spec.Targets) > 0 {
			add("targets", "not valid for run jobs")
		}
		if len(spec.Tenants) > 0 {
			add("tenants", "not valid for run jobs (use kind %q)", KindScenario)
		}
		if len(spec.QoS) > 0 {
			add("qos", "not valid for run jobs (use qos_masks/qos_mbps for the single-class budget)")
		}
		// A run job is one class of service: at most one name across
		// both assignment maps (hamssim's -qos-mask/-qos-mbps shape).
		names := make(map[string]bool)
		for n := range spec.QoSMasks {
			names[n] = true
		}
		for n := range spec.QoSMBps {
			names[n] = true
		}
		if len(names) > 1 {
			add("qos_masks", "run jobs take a single class of service, got %d names", len(names))
		}
		// The policy timeline must reprogram that single class (it may
		// also be the only thing defining it).
		for i, ch := range spec.QoSPolicy {
			if ch.Class == "" {
				continue
			}
			if len(names) > 0 && !names[ch.Class] {
				add(fmt.Sprintf("qos_policy[%d].class", i), "run jobs have a single class of service; %q does not match the qos_masks/qos_mbps class", ch.Class)
			} else if len(names) == 0 && ch.Class != spec.QoSPolicy[0].Class {
				add(fmt.Sprintf("qos_policy[%d].class", i), "run jobs have a single class of service; %q does not match %q", ch.Class, spec.QoSPolicy[0].Class)
			}
		}
		if spec.SLO != nil {
			add("slo", "not valid for run jobs (a single class has no victim/aggressor split; use kind %q or the qos target)", KindScenario)
		}
		if spec.Checkpoint != "" {
			add("checkpoint", "not valid for run jobs (use kind %q)", KindScenario)
		}
		if spec.Warmup != 0 {
			add("warmup", "not valid for run jobs (use kind %q)", KindScenario)
		}

	case KindTarget:
		if len(spec.Targets) == 0 {
			add("targets", "required for target jobs (e.g. [\"mixed\"] or [\"all\"])")
		}
		for i, t := range spec.Targets {
			if t != "all" && !experiments.KnownTarget(t) {
				add(fmt.Sprintf("targets[%d]", i), "unknown target %q (have %s, all)", t, strings.Join(experiments.TargetNames(), ", "))
			}
		}
		if spec.Platform != "" {
			add("platform", "not valid for target jobs (targets pin their own platforms)")
		}
		if spec.Workload != "" {
			add("workload", "not valid for target jobs")
		}
		if len(spec.Tenants) > 0 {
			add("tenants", "not valid for target jobs (use kind %q)", KindScenario)
		}
		if len(spec.QoS) > 0 {
			add("qos", "not valid for target jobs (qos_masks/qos_mbps override the qos target's policy)")
		}
		// Overrides must address the qos target's classes — same check
		// hamsbench runs before any cell.
		if len(masks) > 0 || len(mbps) > 0 {
			if err := experiments.ValidateQoSOverrides(masks, mbps); err != nil {
				add("qos_masks", "%v", err)
			}
		}
		if len(spec.QoSPolicy) > 0 {
			add("qos_policy", "not valid for target jobs (targets pin their own scenarios; use kind %q)", KindScenario)
		}
		if spec.SLO != nil {
			if spec.SLO.Class != "" {
				add("slo.class", "not valid for target jobs (the qos target owns its victim class)")
			}
			if !slices.Contains(experiments.ExpandTargets(spec.Targets), "qos") {
				add("slo", "only meaningful with the qos target in targets (it sets the objective of qos's auto variant)")
			}
		}

		if spec.Checkpoint != "" {
			add("checkpoint", "not valid for target jobs (hamsbench -from-checkpoint feeds the sampled target; use kind %q for restore jobs)", KindScenario)
		}
		if spec.Warmup != 0 {
			add("warmup", "not valid for target jobs (targets pin their own scenarios; use kind %q)", KindScenario)
		}

	case KindScenario:
		if spec.Platform == "" {
			add("platform", "required for scenario jobs")
		} else if !platform.Known(spec.Platform) {
			add("platform", "unknown platform %q (have %s)", spec.Platform, strings.Join(platform.AllNames(), ", "))
		}
		if spec.Workload != "" {
			add("workload", "not valid for scenario jobs (name workloads per tenant)")
		}
		if len(spec.Targets) > 0 {
			add("targets", "not valid for scenario jobs")
		}
		if len(spec.QoSMasks) > 0 || len(spec.QoSMBps) > 0 {
			add("qos_masks", "not valid for scenario jobs (define classes in the qos table)")
		}
		validateClasses(spec, add)
		validateTenants(spec, add)
		classes := make(map[string]bool, len(spec.QoS))
		for _, c := range spec.QoS {
			classes[c.Name] = true
		}
		if len(spec.QoSPolicy) > 0 && len(spec.QoS) == 0 {
			add("qos_policy", "requires a qos table to reprogram")
		}
		for i, ch := range spec.QoSPolicy {
			if ch.Class != "" && len(spec.QoS) > 0 && !classes[ch.Class] {
				add(fmt.Sprintf("qos_policy[%d].class", i), "unknown QoS class %q (declare it in the qos table)", ch.Class)
			}
		}
		if spec.SLO != nil {
			if len(spec.QoS) == 0 {
				add("slo", "requires a qos table (the controller reprograms its classes)")
			}
			if spec.SLO.Class == "" {
				add("slo.class", "required for scenario jobs (names the victim class to defend)")
			} else if len(spec.QoS) > 0 && !classes[spec.SLO.Class] {
				add("slo.class", "unknown QoS class %q (declare it in the qos table)", spec.SLO.Class)
			}
		}
	}

	if len(es) > 0 {
		return es
	}
	return nil
}

// validateClasses checks a scenario job's CLOS table.
func validateClasses(spec JobSpec, add func(field, format string, args ...any)) {
	if len(spec.QoS) > qos.MaxClasses {
		add("qos", "at most %d classes, got %d", qos.MaxClasses, len(spec.QoS))
	}
	seen := make(map[string]bool, len(spec.QoS))
	for i, c := range spec.QoS {
		field := fmt.Sprintf("qos[%d]", i)
		if c.Name == "" {
			add(field+".name", "required")
		} else if seen[c.Name] {
			add(field+".name", "duplicate class %q", c.Name)
		}
		seen[c.Name] = true
		if _, err := qos.ParseMask(c.WayMask); err != nil {
			add(field+".way_mask", "%v", err)
		}
		if c.MBps < 0 {
			add(field+".mbps", "want a non-negative MB/s value, got %g", c.MBps)
		}
	}
}

// validateTenants checks a scenario job's traffic sources.
func validateTenants(spec JobSpec, add func(field, format string, args ...any)) {
	if len(spec.Tenants) == 0 {
		add("tenants", "required for scenario jobs")
		return
	}
	classes := make(map[string]bool, len(spec.QoS))
	for _, c := range spec.QoS {
		classes[c.Name] = true
	}
	names := make(map[string]bool, len(spec.Tenants))
	for i, t := range spec.Tenants {
		field := fmt.Sprintf("tenants[%d]", i)
		switch {
		case t.Workload != "" && t.Trace != "":
			add(field, "workload and trace are mutually exclusive")
		case t.Workload == "" && t.Trace == "":
			add(field, "want exactly one of workload or trace")
		}
		if t.Workload != "" {
			if _, err := workload.ByName(t.Workload); err != nil {
				add(field+".workload", "%v", err)
			}
		}
		if t.Name == "" {
			// The hamstrace shape: one unnamed trace tenant expanding
			// to the container's recorded tenant labels.
			if t.Trace == "" {
				add(field+".name", "required for workload tenants")
			} else if len(spec.Tenants) > 1 {
				add(field+".name", "required when a scenario has several tenants")
			}
		} else if names[t.Name] {
			add(field+".name", "duplicate tenant %q", t.Name)
		}
		names[t.Name] = true
		if t.TraceLabel != "" && t.Trace == "" {
			add(field+".trace_label", "only valid with a trace")
		}
		if t.Class != "" && !classes[t.Class] {
			add(field+".class", "unknown QoS class %q (declare it in the qos table)", t.Class)
		}
		if t.Seed < 0 {
			add(field+".seed", "want a non-negative seed, got %d", t.Seed)
		}
		if t.Scale < 0 {
			add(field+".scale", "want a non-negative scale, got %g", t.Scale)
		}
		if t.HotFrac < 0 || t.HotFrac > 1 {
			add(field+".hot_fraction", "want a fraction in [0, 1], got %g", t.HotFrac)
		}
	}
}
