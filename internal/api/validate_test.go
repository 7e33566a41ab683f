package api

import (
	"encoding/json"
	"strings"
	"testing"
)

// validSpecs are well-formed specs of each kind, reused as the
// mutation base of the malformed-input table.
func validRun() JobSpec {
	return JobSpec{Kind: KindRun, Platform: "hams-LE", Workload: "seqRd"}
}

func validTarget() JobSpec {
	return JobSpec{Kind: KindTarget, Targets: []string{"mixed", "qos"}}
}

func validScenario() JobSpec {
	return JobSpec{
		Kind: KindScenario, Platform: "hams-LE", Name: "pair",
		Tenants: []TenantSpec{
			{Name: "a", Workload: "rndRd"},
			{Name: "b", Workload: "seqWr", Class: "bulk"},
		},
		QoS: []ClassSpec{{Name: "bulk", WayMask: "0x3", MBps: 100}},
	}
}

func TestValidateAcceptsWellFormedSpecs(t *testing.T) {
	for _, spec := range []JobSpec{
		validRun(),
		validTarget(),
		validScenario(),
		{Kind: KindRun, Schema: SchemaVersion, Platform: "mmap", Workload: "BFS",
			Scale: 1e-6, Seed: 7, Parallel: 2, PageBytes: 1 << 16, Ways: 4, Banks: 2,
			Policy: "clock", MSHRs: 4, QueueDepth: 8,
			QoSMasks: map[string]string{"workload": "0x3"},
			QoSMBps:  map[string]float64{"workload": 200}},
		{Kind: KindTarget, Targets: []string{"all"},
			QoSMasks: map[string]string{"latency": "0xc"},
			QoSMBps:  map[string]float64{"stream": 50}},
		// Sole unnamed trace tenant: the hamstrace-replay shape.
		{Kind: KindScenario, Platform: "hams-LE",
			Tenants: []TenantSpec{{Trace: "t.trace"}}},
		// Dynamic QoS: a policy timeline and an SLO on a scenario job.
		func() JobSpec {
			s := validScenario()
			s.QoSPolicy = []PolicyChangeSpec{
				{AtNS: 1e6, Class: "bulk", WayMask: "0x1", MBps: 100},
				{AtNS: 2e6, Class: "bulk", WayMask: "full"},
			}
			s.SLO = &SLOSpec{Class: "bulk", TargetP99NS: 5000}
			return s
		}(),
		// A run job's timeline may be the only thing naming its class.
		func() JobSpec {
			s := validRun()
			s.QoSPolicy = []PolicyChangeSpec{{AtNS: 1e6, Class: "workload", WayMask: "0x3"}}
			return s
		}(),
		// A target job carries only the p99 objective, with qos on.
		{Kind: KindTarget, Targets: []string{"qos"},
			SLO: &SLOSpec{TargetP99NS: 5000}},
		{Kind: KindTarget, Targets: []string{"all"},
			SLO: &SLOSpec{TargetP99NS: 5000}},
		// A phase-split scenario, and the same shape restored from a
		// checkpoint image (which records its own warm-up length).
		func() JobSpec {
			s := validScenario()
			s.Warmup = 500
			return s
		}(),
		func() JobSpec {
			s := validScenario()
			s.Checkpoint = "warm.ckpt"
			return s
		}(),
	} {
		if err := Validate(spec); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", spec, err)
		}
	}
}

// TestValidateRejectsMalformedSpecs is the every-malformed-input-case
// table: each entry mutates a valid spec one way and names the field
// the error must land on.
func TestValidateRejectsMalformedSpecs(t *testing.T) {
	cases := []struct {
		name  string
		spec  JobSpec
		field string // a FieldError.Field that must be present
	}{
		{"empty kind", JobSpec{}, "kind"},
		{"unknown kind", JobSpec{Kind: "batch"}, "kind"},
		{"future schema", func() JobSpec { s := validRun(); s.Schema = 99; return s }(), "schema"},
		{"negative scale", func() JobSpec { s := validRun(); s.Scale = -1; return s }(), "scale"},
		{"negative seed", func() JobSpec { s := validRun(); s.Seed = -1; return s }(), "seed"},
		{"negative parallel", func() JobSpec { s := validRun(); s.Parallel = -1; return s }(), "parallel"},
		{"negative ways", func() JobSpec { s := validRun(); s.Ways = -1; return s }(), "ways"},
		{"negative banks", func() JobSpec { s := validRun(); s.Banks = -1; return s }(), "banks"},
		{"negative mshrs", func() JobSpec { s := validRun(); s.MSHRs = -1; return s }(), "mshrs"},
		{"negative queue depth", func() JobSpec { s := validRun(); s.QueueDepth = -1; return s }(), "queue_depth"},
		{"bad policy", func() JobSpec { s := validRun(); s.Policy = "fifo"; return s }(), "policy"},
		{"bad mask syntax", func() JobSpec {
			s := validRun()
			s.QoSMasks = map[string]string{"workload": "xyz"}
			return s
		}(), "qos_masks"},
		{"zero mask", func() JobSpec {
			s := validRun()
			s.QoSMasks = map[string]string{"workload": "0x0"}
			return s
		}(), "qos_masks"},
		{"empty mask class name", func() JobSpec {
			s := validRun()
			s.QoSMasks = map[string]string{"": "0x3"}
			return s
		}(), "qos_masks"},
		{"non-positive mbps", func() JobSpec {
			s := validRun()
			s.QoSMBps = map[string]float64{"workload": 0}
			return s
		}(), "qos_mbps"},

		{"run without platform", func() JobSpec { s := validRun(); s.Platform = ""; return s }(), "platform"},
		{"run unknown platform", func() JobSpec { s := validRun(); s.Platform = "pdp11"; return s }(), "platform"},
		{"run without workload", func() JobSpec { s := validRun(); s.Workload = ""; return s }(), "workload"},
		{"run unknown workload", func() JobSpec { s := validRun(); s.Workload = "nope"; return s }(), "workload"},
		{"run with targets", func() JobSpec { s := validRun(); s.Targets = []string{"fig5"}; return s }(), "targets"},
		{"run with tenants", func() JobSpec {
			s := validRun()
			s.Tenants = []TenantSpec{{Name: "a", Workload: "rndRd"}}
			return s
		}(), "tenants"},
		{"run with qos table", func() JobSpec {
			s := validRun()
			s.QoS = []ClassSpec{{Name: "a"}}
			return s
		}(), "qos"},
		{"run with two classes", func() JobSpec {
			s := validRun()
			s.QoSMasks = map[string]string{"a": "0x1", "b": "0x2"}
			return s
		}(), "qos_masks"},

		{"target without targets", JobSpec{Kind: KindTarget}, "targets"},
		{"target unknown name", JobSpec{Kind: KindTarget, Targets: []string{"fig99"}}, "targets[0]"},
		{"target with platform", func() JobSpec { s := validTarget(); s.Platform = "mmap"; return s }(), "platform"},
		{"target with workload", func() JobSpec { s := validTarget(); s.Workload = "seqRd"; return s }(), "workload"},
		{"target with tenants", func() JobSpec {
			s := validTarget()
			s.Tenants = []TenantSpec{{Name: "a", Workload: "rndRd"}}
			return s
		}(), "tenants"},
		{"target with qos table", func() JobSpec {
			s := validTarget()
			s.QoS = []ClassSpec{{Name: "a"}}
			return s
		}(), "qos"},
		{"target override unknown class", func() JobSpec {
			s := validTarget()
			s.QoSMasks = map[string]string{"nosuch": "0x3"}
			return s
		}(), "qos_masks"},

		{"scenario without platform", func() JobSpec { s := validScenario(); s.Platform = ""; return s }(), "platform"},
		{"scenario unknown platform", func() JobSpec { s := validScenario(); s.Platform = "pdp11"; return s }(), "platform"},
		{"scenario with workload", func() JobSpec { s := validScenario(); s.Workload = "seqRd"; return s }(), "workload"},
		{"scenario with targets", func() JobSpec { s := validScenario(); s.Targets = []string{"qos"}; return s }(), "targets"},
		{"scenario with mask overrides", func() JobSpec {
			s := validScenario()
			s.QoSMasks = map[string]string{"bulk": "0x1"}
			return s
		}(), "qos_masks"},
		{"scenario without tenants", func() JobSpec { s := validScenario(); s.Tenants = nil; return s }(), "tenants"},
		{"tenant with both sources", func() JobSpec {
			s := validScenario()
			s.Tenants[0].Trace = "t.trace"
			return s
		}(), "tenants[0]"},
		{"tenant with neither source", func() JobSpec {
			s := validScenario()
			s.Tenants[0].Workload = ""
			return s
		}(), "tenants[0]"},
		{"tenant unknown workload", func() JobSpec {
			s := validScenario()
			s.Tenants[0].Workload = "nope"
			return s
		}(), "tenants[0].workload"},
		{"unnamed workload tenant", func() JobSpec {
			s := validScenario()
			s.Tenants[0].Name = ""
			return s
		}(), "tenants[0].name"},
		{"unnamed trace tenant among several", func() JobSpec {
			s := validScenario()
			s.Tenants[0] = TenantSpec{Trace: "t.trace"}
			return s
		}(), "tenants[0].name"},
		{"duplicate tenant names", func() JobSpec {
			s := validScenario()
			s.Tenants[1].Name = "a"
			return s
		}(), "tenants[1].name"},
		{"trace label without trace", func() JobSpec {
			s := validScenario()
			s.Tenants[0].TraceLabel = "x"
			return s
		}(), "tenants[0].trace_label"},
		{"tenant unknown class", func() JobSpec {
			s := validScenario()
			s.Tenants[0].Class = "gold"
			return s
		}(), "tenants[0].class"},
		{"tenant negative seed", func() JobSpec {
			s := validScenario()
			s.Tenants[0].Seed = -1
			return s
		}(), "tenants[0].seed"},
		{"tenant negative scale", func() JobSpec {
			s := validScenario()
			s.Tenants[0].Scale = -1
			return s
		}(), "tenants[0].scale"},
		{"tenant hot fraction out of range", func() JobSpec {
			s := validScenario()
			s.Tenants[0].HotFrac = 1.5
			return s
		}(), "tenants[0].hot_fraction"},
		{"negative warmup", func() JobSpec {
			s := validScenario()
			s.Warmup = -1
			return s
		}(), "warmup"},
		{"checkpoint and warmup together", func() JobSpec {
			s := validScenario()
			s.Checkpoint = "warm.ckpt"
			s.Warmup = 500
			return s
		}(), "warmup"},
		{"run with checkpoint", func() JobSpec { s := validRun(); s.Checkpoint = "warm.ckpt"; return s }(), "checkpoint"},
		{"run with warmup", func() JobSpec { s := validRun(); s.Warmup = 500; return s }(), "warmup"},
		{"target with checkpoint", func() JobSpec { s := validTarget(); s.Checkpoint = "warm.ckpt"; return s }(), "checkpoint"},
		{"target with warmup", func() JobSpec { s := validTarget(); s.Warmup = 500; return s }(), "warmup"},
		{"class without name", func() JobSpec {
			s := validScenario()
			s.QoS = append(s.QoS, ClassSpec{WayMask: "0x1"})
			return s
		}(), "qos[1].name"},
		{"duplicate class names", func() JobSpec {
			s := validScenario()
			s.QoS = append(s.QoS, ClassSpec{Name: "bulk"})
			return s
		}(), "qos[1].name"},
		{"class bad mask", func() JobSpec {
			s := validScenario()
			s.QoS[0].WayMask = "xyz"
			return s
		}(), "qos[0].way_mask"},
		{"class negative mbps", func() JobSpec {
			s := validScenario()
			s.QoS[0].MBps = -1
			return s
		}(), "qos[0].mbps"},
		{"policy change at t=0", func() JobSpec {
			s := validScenario()
			s.QoSPolicy = []PolicyChangeSpec{{AtNS: 0, Class: "bulk"}}
			return s
		}(), "qos_policy[0].at_ns"},
		{"policy change in the past", func() JobSpec {
			s := validScenario()
			s.QoSPolicy = []PolicyChangeSpec{{AtNS: -5, Class: "bulk"}}
			return s
		}(), "qos_policy[0].at_ns"},
		{"policy schedule decreasing", func() JobSpec {
			s := validScenario()
			s.QoSPolicy = []PolicyChangeSpec{
				{AtNS: 2e6, Class: "bulk"},
				{AtNS: 1e6, Class: "bulk"},
			}
			return s
		}(), "qos_policy[1].at_ns"},
		{"policy change without class", func() JobSpec {
			s := validScenario()
			s.QoSPolicy = []PolicyChangeSpec{{AtNS: 1e6}}
			return s
		}(), "qos_policy[0].class"},
		{"policy change bad mask", func() JobSpec {
			s := validScenario()
			s.QoSPolicy = []PolicyChangeSpec{{AtNS: 1e6, Class: "bulk", WayMask: "xyz"}}
			return s
		}(), "qos_policy[0].way_mask"},
		{"policy change negative mbps", func() JobSpec {
			s := validScenario()
			s.QoSPolicy = []PolicyChangeSpec{{AtNS: 1e6, Class: "bulk", MBps: -1}}
			return s
		}(), "qos_policy[0].mbps"},
		{"policy change unknown class", func() JobSpec {
			s := validScenario()
			s.QoSPolicy = []PolicyChangeSpec{{AtNS: 1e6, Class: "gold"}}
			return s
		}(), "qos_policy[0].class"},
		{"scenario policy without table", func() JobSpec {
			s := validScenario()
			s.QoS = nil
			s.Tenants[1].Class = ""
			s.QoSPolicy = []PolicyChangeSpec{{AtNS: 1e6, Class: "bulk"}}
			return s
		}(), "qos_policy"},
		{"non-positive slo target", func() JobSpec {
			s := validScenario()
			s.SLO = &SLOSpec{Class: "bulk"}
			return s
		}(), "slo.target_p99_ns"},
		{"scenario slo without table", func() JobSpec {
			s := validScenario()
			s.QoS = nil
			s.Tenants[1].Class = ""
			s.SLO = &SLOSpec{Class: "bulk", TargetP99NS: 5000}
			return s
		}(), "slo"},
		{"scenario slo without class", func() JobSpec {
			s := validScenario()
			s.SLO = &SLOSpec{TargetP99NS: 5000}
			return s
		}(), "slo.class"},
		{"scenario slo unknown class", func() JobSpec {
			s := validScenario()
			s.SLO = &SLOSpec{Class: "gold", TargetP99NS: 5000}
			return s
		}(), "slo.class"},
		{"run policy second class", func() JobSpec {
			s := validRun()
			s.QoSPolicy = []PolicyChangeSpec{
				{AtNS: 1e6, Class: "a"},
				{AtNS: 2e6, Class: "b"},
			}
			return s
		}(), "qos_policy[1].class"},
		{"run policy off the budget class", func() JobSpec {
			s := validRun()
			s.QoSMasks = map[string]string{"workload": "0x3"}
			s.QoSPolicy = []PolicyChangeSpec{{AtNS: 1e6, Class: "other"}}
			return s
		}(), "qos_policy[0].class"},
		{"run with slo", func() JobSpec {
			s := validRun()
			s.SLO = &SLOSpec{TargetP99NS: 5000}
			return s
		}(), "slo"},
		{"target with policy", func() JobSpec {
			s := validTarget()
			s.QoSPolicy = []PolicyChangeSpec{{AtNS: 1e6, Class: "stream"}}
			return s
		}(), "qos_policy"},
		{"target slo with class", func() JobSpec {
			s := JobSpec{Kind: KindTarget, Targets: []string{"qos"},
				SLO: &SLOSpec{Class: "latency", TargetP99NS: 5000}}
			return s
		}(), "slo.class"},
		{"target slo without qos", func() JobSpec {
			s := JobSpec{Kind: KindTarget, Targets: []string{"mixed", "sampled"},
				SLO: &SLOSpec{TargetP99NS: 5000}}
			return s
		}(), "slo"},
		// The SLO-driven policy is the qos target's auto variant; no
		// alias keeps the old target name alive.
		{"autoqos target", JobSpec{Kind: KindTarget, Targets: []string{"autoqos"}}, "targets[0]"},
		{"too many classes", func() JobSpec {
			s := validScenario()
			s.QoS = nil
			for i := 0; i < 17; i++ {
				s.QoS = append(s.QoS, ClassSpec{Name: string(rune('a' + i))})
			}
			s.Tenants[1].Class = "b"
			return s
		}(), "qos"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Validate(tc.spec)
			if err == nil {
				t.Fatalf("Validate accepted malformed spec %+v", tc.spec)
			}
			es, ok := err.(Errors)
			if !ok {
				t.Fatalf("Validate returned %T, want Errors", err)
			}
			for _, e := range es {
				if e.Field == tc.field {
					return
				}
			}
			t.Fatalf("no error on field %q; got %v", tc.field, es)
		})
	}
}

// TestValidateReportsAllErrorsAtOnce pins the everything-in-one-pass
// contract: a spec broken three ways yields three field errors, not
// one 400 per fix attempt.
func TestValidateReportsAllErrorsAtOnce(t *testing.T) {
	spec := validRun()
	spec.Platform = "pdp11"
	spec.Workload = "nope"
	spec.MSHRs = -1
	err := Validate(spec)
	es, ok := err.(Errors)
	if !ok {
		t.Fatalf("got %T (%v), want Errors", err, err)
	}
	if len(es) != 3 {
		t.Fatalf("got %d errors (%v), want 3", len(es), es)
	}
}

func TestErrorsRenderAsFieldColonMessage(t *testing.T) {
	es := Errors{{Field: "mshrs", Msg: "want a non-negative depth, got -1"}}
	if got := es.Error(); !strings.Contains(got, "mshrs: want a non-negative depth") {
		t.Fatalf("Error() = %q", got)
	}
	b, err := json.Marshal(es)
	if err != nil {
		t.Fatal(err)
	}
	if want := `[{"field":"mshrs","error":"want a non-negative depth, got -1"}]`; string(b) != want {
		t.Fatalf("json = %s, want %s", b, want)
	}
}

func TestAsErrorsWrapsForeignErrors(t *testing.T) {
	if AsErrors(nil) != nil {
		t.Fatal("AsErrors(nil) != nil")
	}
	es := AsErrors(Validate(JobSpec{}))
	if len(es) == 0 || es[0].Field != "kind" {
		t.Fatalf("AsErrors passthrough broken: %v", es)
	}
	es = AsErrors(json.Unmarshal([]byte("{"), &JobSpec{}))
	if len(es) != 1 || es[0].Field != "spec" {
		t.Fatalf("AsErrors wrap broken: %v", es)
	}
}

// TestJobSpecJSONRoundTrip pins the wire field names: a renamed Go
// field must not silently rename the JSON schema.
func TestJobSpecJSONRoundTrip(t *testing.T) {
	in := []byte(`{
		"schema": 1, "kind": "scenario", "client": "ci",
		"scale": 1e-6, "seed": 7, "parallel": 2,
		"platform": "hams-LE", "page_bytes": 65536, "ways": 4, "banks": 2,
		"policy": "clock", "mshrs": 4, "queue_depth": 8, "nvdimm_bytes": 1024,
		"name": "pair",
		"tenants": [
			{"name": "a", "workload": "rndRd", "class": "bulk", "seed": 3,
			 "base": 4096, "scale": 2e-6, "hot_bytes": 1024, "hot_fraction": 0.5},
			{"name": "b", "trace": "upload-1", "trace_label": "oltp"}
		],
		"qos": [{"name": "bulk", "way_mask": "0x3", "mbps": 100}],
		"qos_policy": [{"at_ns": 2000000, "class": "bulk", "way_mask": "0x1", "mbps": 50}],
		"slo": {"class": "bulk", "target_p99_ns": 5000}
	}`)
	var spec JobSpec
	if err := json.Unmarshal(in, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.Schema != 1 || spec.Kind != KindScenario || spec.Client != "ci" ||
		spec.PageBytes != 65536 || spec.QueueDepth != 8 || spec.NVDIMM != 1024 {
		t.Fatalf("top-level decode lost fields: %+v", spec)
	}
	a := spec.Tenants[0]
	if a.HotBytes != 1024 || a.HotFrac != 0.5 || a.Base != 4096 {
		t.Fatalf("tenant decode lost fields: %+v", a)
	}
	if spec.Tenants[1].TraceLabel != "oltp" {
		t.Fatalf("trace_label lost: %+v", spec.Tenants[1])
	}
	if spec.QoS[0].WayMask != "0x3" || spec.QoS[0].MBps != 100 {
		t.Fatalf("class decode lost fields: %+v", spec.QoS[0])
	}
	if len(spec.QoSPolicy) != 1 ||
		spec.QoSPolicy[0] != (PolicyChangeSpec{AtNS: 2000000, Class: "bulk", WayMask: "0x1", MBps: 50}) {
		t.Fatalf("qos_policy decode lost fields: %+v", spec.QoSPolicy)
	}
	if spec.SLO == nil || *spec.SLO != (SLOSpec{Class: "bulk", TargetP99NS: 5000}) {
		t.Fatalf("slo decode lost fields: %+v", spec.SLO)
	}
	out, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back JobSpec
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	if string(out) == "" || back.Tenants[0] != a {
		t.Fatalf("round trip changed tenant: %+v vs %+v", back.Tenants[0], a)
	}
}
