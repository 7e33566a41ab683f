package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"hams/internal/report"
)

// sampledArtifact runs the sampled target with a recorder and returns
// the canonical artifact bytes and the markdown summary. The fan-out
// cell's wall-clock speedup floor is disarmed for the duration: under
// test instrumentation host timing ratios mean nothing, and the floor
// gates a ratio, never the cell contents these tests compare.
func sampledArtifact(o Options) ([]byte, string, error) {
	defer func(prev bool) { sampledGateWallClock = prev }(sampledGateWallClock)
	sampledGateWallClock = false
	o.Recorder = &report.Recorder{}
	_, md, err := Sampled(o)
	if err != nil {
		return nil, "", err
	}
	art := o.Recorder.Artifact("sampled", o.Scale, o.Seed, o.Parallel)
	b, err := art.CanonicalJSON()
	return b, md, err
}

// sampledSerial holds the serial run of the sampled target, made once
// per test binary: TestSampledParallelDeterminism compares its artifact
// and TestSampledMarkdownShape checks its markdown.
var sampledSerial struct {
	once sync.Once
	art  []byte
	md   string
	err  error
}

func sampledSerialRun(t *testing.T) ([]byte, string) {
	t.Helper()
	if testing.Short() {
		t.Skip("sampled target runs full warm-ups; skipped in -short")
	}
	sampledSerial.once.Do(func() {
		sampledSerial.art, sampledSerial.md, sampledSerial.err =
			sampledArtifact(Options{Seed: tiny.Seed, Parallel: 1})
	})
	if sampledSerial.err != nil {
		t.Fatal(sampledSerial.err)
	}
	return sampledSerial.art, sampledSerial.md
}

// Satellite: the sampled target's cells — the sampling-error numbers
// and the restored-run results the fan-out cell publishes — are
// byte-identical for any worker count and any dispatch order.
func TestSampledParallelDeterminism(t *testing.T) {
	want, _ := sampledSerialRun(t)
	for _, key := range []string{
		`"sampled/warm+measure/split@hams-LE"`,
		`"sampled/warm+measure/fanout@hams-LE"`,
	} {
		if !bytes.Contains(want, []byte(key)) {
			t.Fatalf("artifact missing cell %s:\n%s", key, want[:min(len(want), 600)])
		}
	}
	for _, o := range []Options{
		{Seed: tiny.Seed, Parallel: 8},
		{Seed: tiny.Seed, Parallel: 3, Shuffle: 777},
	} {
		got, _, err := sampledArtifact(o)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("sampled artifact diverged for parallel=%d shuffle=%d", o.Parallel, o.Shuffle)
		}
	}
}

// The summary markdown must carry the amortization table (speedup
// column included) and the per-tenant sampling comparison.
func TestSampledMarkdownShape(t *testing.T) {
	_, md := sampledSerialRun(t)
	for _, want := range []string{
		"| cells | warm-up steps/thread |",
		"speedup",
		"| svc |",
		"| bulk |",
	} {
		if !strings.Contains(md, want) {
			t.Fatalf("summary markdown missing %q:\n%s", want, md)
		}
	}
}
