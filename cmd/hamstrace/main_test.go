package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUsageAndValidation: malformed input exits 2 before anything
// records or replays.
func TestUsageAndValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"no args", nil},
		{"unknown subcommand", []string{"frobnicate"}},
		{"record no args", []string{"record"}},
		{"record one arg", []string{"record", "seqRd"}},
		{"record bad threads", []string{"record", "-threads", "x", "seqRd", "out.trace"}},
		{"replay no file", []string{"replay"}},
		{"replay negative mshrs", []string{"replay", "-mshrs", "-3", "f.trace"}},
		{"replay bad qos policy", []string{"replay", "-qos-policy", "zz", "f.trace"}},
		{"replay qos policy at t=0", []string{"replay", "-qos-policy", "0s:trace:0x3:100", "f.trace"}},
		{"info no file", []string{"info"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(tc.args, &out, &errb); code != 2 {
				t.Fatalf("exit %d, want 2\nstderr: %s", code, errb.String())
			}
		})
	}
}

// TestRecordUnknownWorkload: the workload name is validated before
// the output file is created — a typo must not truncate anything.
func TestRecordUnknownWorkload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.trace")
	var out, errb bytes.Buffer
	if code := run([]string{"record", "no-such-workload", path}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2\nstderr: %s", code, errb.String())
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("output file was created before workload validation (stat err: %v)", err)
	}
	if strings.Contains(errb.String(), "usage") {
		t.Fatalf("unknown workload reported as usage error:\n%s", errb.String())
	}
}

// TestRecordInfoReplayRoundTrip drives the three subcommands end to
// end on a tiny trace, including a non-blocking (-mshrs 4) replay.
func TestRecordInfoReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seqrd.trace")
	var out, errb bytes.Buffer
	if code := run([]string{"record", "-scale", "1e-8", "seqRd", path}, &out, &errb); code != 0 {
		t.Fatalf("record exit %d\nstderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "recorded") {
		t.Fatalf("record output: %s", out.String())
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"info", path}, &out, &errb); code != 0 {
		t.Fatalf("info exit %d\nstderr: %s", code, errb.String())
	}
	for _, want := range []string{"version      2", "threads      1", "accesses"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("info output missing %q:\n%s", want, out.String())
		}
	}

	for _, mshrs := range []string{"0", "4"} {
		out.Reset()
		errb.Reset()
		if code := run([]string{"replay", "-mshrs", mshrs, path}, &out, &errb); code != 0 {
			t.Fatalf("replay -mshrs %s exit %d\nstderr: %s", mshrs, code, errb.String())
		}
		for _, want := range []string{"platform     hams-LE", "Per-tenant latency breakdown", "seqRd"} {
			if !strings.Contains(out.String(), want) {
				t.Fatalf("replay output missing %q:\n%s", want, out.String())
			}
		}
	}
}

// TestReplayMissingFile: a vanished input is a runtime failure (1).
func TestReplayMissingFile(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"replay", filepath.Join(t.TempDir(), "gone.trace")}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1\nstderr: %s", code, errb.String())
	}
}

// TestCheckpointInfoRestoreRoundTrip drives the checkpoint flow end to
// end: warm-up + save, info on the image (the same subcommand that
// reads traces — it sniffs the magic), and a restored measured phase
// with real work in it.
func TestCheckpointInfoRestoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "warm.ckpt")
	var out, errb bytes.Buffer
	// seqRd at the default 1e-6 scale runs ~300 steps/thread: a
	// 100-step warm-up leaves a real measured phase behind.
	if code := run([]string{"checkpoint", "-warmup", "100", "seqRd", path}, &out, &errb); code != 0 {
		t.Fatalf("checkpoint exit %d\nstderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "checkpointed seqRd") {
		t.Fatalf("checkpoint output: %s", out.String())
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"info", path}, &out, &errb); code != 0 {
		t.Fatalf("info exit %d\nstderr: %s", code, errb.String())
	}
	for _, want := range []string{"checkpoint   v2", "platform     hams-LE",
		"warmup       100 steps/thread", "sim/engine", "mem/nvdimm", "payload"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("info output missing %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"restore", "seqRd", path}, &out, &errb); code != 0 {
		t.Fatalf("restore exit %d\nstderr: %s", code, errb.String())
	}
	for _, want := range []string{"restored     seqRd", "100 steps/thread of warm-up",
		"Per-tenant latency breakdown"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("restore output missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "work units   0 ") {
		t.Fatalf("restored measured phase is empty:\n%s", out.String())
	}

	// A structurally different platform refuses the image up front.
	out.Reset()
	errb.Reset()
	if code := run([]string{"restore", "-platform", "hams-TE", "seqRd", path}, &out, &errb); code != 1 {
		t.Fatalf("cross-platform restore exit %d, want 1\nstderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "hams-TE") {
		t.Fatalf("mismatch error does not name the platform:\n%s", errb.String())
	}
}

// TestCheckpointValidation: malformed checkpoint/restore input exits 2
// before any file is created or any simulation runs.
func TestCheckpointValidation(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "never.ckpt")
	cases := []struct {
		name string
		args []string
	}{
		{"checkpoint no args", []string{"checkpoint"}},
		{"checkpoint missing warmup", []string{"checkpoint", "seqRd", out}},
		{"checkpoint negative warmup", []string{"checkpoint", "-warmup", "-5", "seqRd", out}},
		{"checkpoint unknown workload", []string{"checkpoint", "-warmup", "100", "nope", out}},
		{"checkpoint unknown platform", []string{"checkpoint", "-warmup", "100", "-platform", "pdp11", "seqRd", out}},
		{"restore no args", []string{"restore"}},
		{"restore unknown workload", []string{"restore", "nope", out}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var o, e bytes.Buffer
			if code := run(tc.args, &o, &e); code != 2 {
				t.Fatalf("exit %d, want 2\nstderr: %s", code, e.String())
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Fatalf("output file created before validation (stat err: %v)", err)
			}
		})
	}

	// A truncated image is a runtime failure (1) with a decode error,
	// reported before any simulation work.
	bad := filepath.Join(dir, "trunc.ckpt")
	if err := os.WriteFile(bad, []byte("HAMC\x01\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	var o, e bytes.Buffer
	if code := run([]string{"restore", "seqRd", bad}, &o, &e); code != 2 {
		t.Fatalf("truncated image exit %d, want 2\nstderr: %s", code, e.String())
	}
}
