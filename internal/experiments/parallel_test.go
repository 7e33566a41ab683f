package experiments

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"hams/internal/report"
)

// renderAll runs a cross-section of the targets and concatenates the
// rendered tables — the byte stream the determinism contract covers.
func renderAll(t *testing.T, o Options) string {
	t.Helper()
	var b strings.Builder
	tabs, err := StaticTables(o, "table1", "table2", "table3")
	if err != nil {
		t.Fatal(err)
	}
	f5, err := Fig5(o)
	if err != nil {
		t.Fatal(err)
	}
	f10, err := Fig10(o)
	if err != nil {
		t.Fatal(err)
	}
	f18, err := Fig18(o)
	if err != nil {
		t.Fatal(err)
	}
	f20, err := Fig20(o)
	if err != nil {
		t.Fatal(err)
	}
	abl, err := Ablation(o)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := AssocShardSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Replay(o)
	if err != nil {
		t.Fatal(err)
	}
	mx, err := Mixed(o)
	if err != nil {
		t.Fatal(err)
	}
	ml, err := MLPSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range tabs {
		b.WriteString(tb.String())
	}
	for _, tb := range f5 {
		b.WriteString(tb.String())
	}
	b.WriteString(f10.String())
	b.WriteString(f18.String())
	for _, tb := range f20 {
		b.WriteString(tb.String())
	}
	b.WriteString(abl.String())
	for _, tb := range sw {
		b.WriteString(tb.String())
	}
	for _, tb := range rp {
		b.WriteString(tb.String())
	}
	for _, tb := range mx {
		b.WriteString(tb.String())
	}
	for _, tb := range ml {
		b.WriteString(tb.String())
	}
	return b.String()
}

// The tentpole's acceptance bar: serial (-parallel=1), parallel
// (-parallel=8) and shuffled-dispatch runs must render byte-identical
// tables for every ported target.
func TestParallelMatchesSerialByteForByte(t *testing.T) {
	base := tiny
	serial := base
	serial.Parallel = 1
	want := renderAll(t, serial)
	for _, o := range []Options{
		{Scale: base.Scale, Seed: base.Seed, Parallel: 8},
		{Scale: base.Scale, Seed: base.Seed, Parallel: 0},
		{Scale: base.Scale, Seed: base.Seed, Parallel: 8, Shuffle: 12345},
		{Scale: base.Scale, Seed: base.Seed, Parallel: 3, Shuffle: 999},
	} {
		if got := renderAll(t, o); got != want {
			t.Fatalf("parallel=%d shuffle=%d output diverged from serial",
				o.Parallel, o.Shuffle)
		}
	}
}

// artifactBytes runs the ported targets with a recorder and returns
// the canonical (timestamp- and wall-time-free) artifact encoding.
func artifactBytes(t *testing.T, o Options) []byte {
	t.Helper()
	o.Recorder = &report.Recorder{}
	renderAll(t, o)
	art := o.Recorder.Artifact("determinism", o.Scale, o.Seed, o.Parallel)
	b, err := art.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Satellite: BENCH artifacts are byte-identical (modulo timestamps,
// which Canonical strips) for -parallel=1, -parallel=8, and shuffled
// worker completion order.
func TestArtifactBytesDeterministic(t *testing.T) {
	serial := Options{Scale: tiny.Scale, Seed: tiny.Seed, Parallel: 1}
	want := artifactBytes(t, serial)
	if !bytes.Contains(want, []byte(`"units_per_sec"`)) {
		t.Fatalf("artifact carries no throughput cells:\n%s", want[:min(len(want), 600)])
	}
	for _, o := range []Options{
		{Scale: tiny.Scale, Seed: tiny.Seed, Parallel: 8},
		{Scale: tiny.Scale, Seed: tiny.Seed, Parallel: 8, Shuffle: 4242},
	} {
		got := artifactBytes(t, o)
		if !bytes.Equal(got, want) {
			t.Fatalf("artifact bytes diverged for parallel=%d shuffle=%d", o.Parallel, o.Shuffle)
		}
	}
}

// Cancelling the harness context must abort figure generation with the
// context's error instead of hanging or finishing the matrix.
func TestFigureCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := tiny
	o.Ctx = ctx
	if _, err := Fig20(o); err == nil {
		t.Fatal("cancelled Fig20 returned no error")
	}
	if _, err := AssocShardSweep(o); err == nil {
		t.Fatal("cancelled sweep returned no error")
	}
	if _, err := Fig17(o); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Fig17: err = %v, want context.Canceled", err)
	}
}

// Every matrix cell takes its seed from (Options.Seed, workload), so a
// (workload, platform) point measures the same run in every target
// that has it: each Fig10 cell equals Fig16's hams-LE cell for its
// workload in every field but identity and host cost.
func TestFig10CellsMatchFig16(t *testing.T) {
	record := func(fig func(Options) error) map[string]report.Cell {
		o := tiny
		o.Recorder = &report.Recorder{}
		if err := fig(o); err != nil {
			t.Fatal(err)
		}
		by := make(map[string]report.Cell)
		for _, c := range report.CanonicalCells(o.Recorder.Cells()) {
			c.Key, c.Target = "", ""
			by[c.Workload+"@"+c.Platform] = c
		}
		return by
	}
	f10 := record(func(o Options) error { _, err := Fig10(o); return err })
	f16 := record(func(o Options) error { _, err := Fig16(o); return err })
	if len(f10) != len(fig7Workloads) {
		t.Fatalf("fig10 recorded %d cells, want %d", len(f10), len(fig7Workloads))
	}
	for id, c := range f10 {
		if want, ok := f16[id]; !ok || !reflect.DeepEqual(c, want) {
			t.Fatalf("fig10 cell %s:\n%+v\nfig16 has\n%+v", id, c, want)
		}
	}
}

// The recorder must label cells with platform/workload identity and
// record simulated throughput for matrix cells.
func TestRecorderCellShape(t *testing.T) {
	o := tiny
	o.Recorder = &report.Recorder{}
	if _, err := Fig20(o); err != nil {
		t.Fatal(err)
	}
	art := o.Recorder.Artifact("fig20", o.Scale, o.Seed, o.Parallel)
	if len(art.Cells) != 45 { // 5 wl × 6 pages + 5 wl × 3 platforms
		t.Fatalf("fig20 recorded %d cells, want 45", len(art.Cells))
	}
	c := art.Cells[0]
	if c.Key != "fig20/a/seqSel/4KB" || c.Platform != "hams-TE" || c.Workload != "seqSel" {
		t.Fatalf("first cell mislabeled: %+v", c)
	}
	for _, c := range art.Cells {
		if c.UnitsPerSec <= 0 {
			t.Fatalf("cell %s has no throughput", c.Key)
		}
		if c.WallNS <= 0 {
			t.Fatalf("cell %s has no wall time", c.Key)
		}
	}
}
