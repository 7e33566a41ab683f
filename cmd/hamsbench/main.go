// Command hamsbench regenerates the paper's tables and figures and
// serializes machine-readable BENCH artifacts.
//
// Usage:
//
//	hamsbench [-scale 3e-6] [-seed 42] [-parallel N] [-json out.json]
//	          [-summary file.md] [-progress] [-mshrs D]
//	          [-qos-masks name=mask,...] [-qos-mbps name=N,...]
//	          [-slo-p99 40us] [-checkpoint img] [-from-checkpoint img]
//	          <target> [target...]
//	hamsbench compare [-threshold 0.15] [-summary file.md] baseline.json new.json
//
// Targets: table1 table2 table3 fig5 fig6 fig7 fig10 fig16 fig17
// fig18 fig19 fig20 headline ablation sweep replay mixed qos mlp
// sampled all
//
// sweep runs the associativity × shard grid (MoS cache geometry) on
// the random microbenchmarks and rndIns. replay runs the record→replay
// determinism matrix: each cell records a workload through the v2
// trace codec, replays it, and fails unless the replayed simulated
// stats match the live run bit-for-bit. mixed runs the built-in
// multi-tenant scenarios with per-tenant latency percentiles.
// mlp sweeps the non-blocking miss pipeline: MSHR depth 1/2/4/8 (×
// NVMe queue-depth caps) on miss-heavy workloads, reporting mean
// access latency, coalescing/hit-under-miss activity and the peak
// NVMe queue depth per cell; -mshrs overrides the MSHR depth of every
// other HAMS cell (0 keeps each target's own configuration). qos
// runs the RDT-style isolation sweep — a streaming tenant co-located
// with a latency-sensitive service under shared / cat / mba / cat+mba
// CLOS policies plus auto, where the AIMD feedback controller holds
// the victim's rolling p99 to an SLO while maximizing the streamer's
// throughput — with per-tenant percentiles plus MBM occupancy and
// bandwidth counters; -qos-masks and -qos-mbps override the static
// isolated policies' way masks (hex, e.g. latency=0xfc) and throttles
// (MB/s), and -slo-p99 overrides the auto variant's p99 objective.
// sampled is the checkpointed-simulation gate: a split cell pins the
// SMARTS-style interval-sampling error against the full measured phase
// (mean and p50 within 10% per tenant), and a fan-out cell restores N
// measured cells from one warm-up checkpoint, demands bit-identity
// with N live warm-ups, and fails unless the amortization beats the
// 2x wall-clock floor. -checkpoint writes the sampled scenario's
// warm-up image to a file before any target runs; -from-checkpoint
// feeds such an image back so the fan-out cells restore without
// re-warming (same -seed, or every restore fails the match check).
// compare fails (exit 1) when the two artifacts' cell sets diverge —
// cells present on only one side were never gated, so the divergence
// is reported key-by-key instead of silently skipped.
// -parallel sets the engine worker count (0 = GOMAXPROCS, 1 = serial);
// results are bit-identical for any value. -progress prints one stderr
// line per experiment cell as it completes (the same per-cell hook
// hamsd streams over HTTP). -json writes a versioned
// BENCH artifact with one record per experiment cell; compare diffs
// two artifacts and exits nonzero when any cell's simulated throughput
// regressed beyond the threshold (the CI perf gate). -summary appends
// markdown to a file ($GITHUB_STEP_SUMMARY in CI): for a run, the
// summary tables its targets return (qos's victim-delta table,
// sampled's warm-up amortization table); for compare, the delta table.
// Every output path is opened before the first cell runs, so a bad one
// exits 2 up front.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hams/internal/api"
	"hams/internal/checkpoint"
	"hams/internal/experiments"
	"hams/internal/qos"
	"hams/internal/report"
)

// benchFlags maps JobSpec field names to this CLI's flag spellings for
// validation-error rendering (see api.RenderFlagErrors).
var benchFlags = map[string]string{
	"targets": "target", // positional
	"slo":     "-slo-p99",
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main with injectable args and streams (testable; exit
// codes: 0 ok, 1 runtime failure, 2 usage/validation error).
func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("hamsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", 3e-6, "instruction-count scale vs Table III")
	seed := fs.Int64("seed", 42, "workload random seed")
	parallel := fs.Int("parallel", 0, "experiment engine workers (0 = GOMAXPROCS, 1 = serial)")
	jsonOut := fs.String("json", "", "write a BENCH artifact (one record per cell) to this file")
	summaryOut := fs.String("summary", "", "append the targets' markdown summary tables to this file (e.g. $GITHUB_STEP_SUMMARY)")
	qosMasks := fs.String("qos-masks", "", "qos target: override isolated-policy way masks, e.g. latency=0xfc,stream=0x03")
	qosMBps := fs.String("qos-mbps", "", "qos target: override isolated-policy throttles in MB/s, e.g. stream=100")
	sloP99 := fs.Duration("slo-p99", 0, "qos target: victim rolling-p99 objective of the auto variant's feedback controller (0 = built-in default)")
	ckptOut := fs.String("checkpoint", "", "write the sampled scenario's warm-up checkpoint image to this file before any target runs")
	ckptIn := fs.String("from-checkpoint", "", "sampled target: restore fan-out cells from this image instead of warming up live (must match -seed)")
	mshrs := fs.Int("mshrs", 0, "override the per-bank MSHR depth of HAMS cells (0 = each target's own; >= 2 enables the non-blocking miss pipeline)")
	progress := fs.Bool("progress", false, "print one line per completed cell to stderr as it finishes")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile (taken after the run) to this file")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() == 0 {
		usage(stderr)
		return 2
	}
	// Assemble the flag set into the same JobSpec a POST /v1/jobs body
	// decodes to and validate it the same way: CI must not discover a
	// typo only after minutes of earlier targets have already run
	// (PR 2's convention: malformed input exits 2 before any cell runs).
	masks, mbps, err := splitQoSFlags(*qosMasks, *qosMBps)
	if err != nil {
		fmt.Fprintf(stderr, "hamsbench: %v\n", err)
		return 2
	}
	spec := api.JobSpec{
		Kind: api.KindTarget, Targets: fs.Args(),
		Scale: *scale, Seed: *seed, Parallel: *parallel, MSHRs: *mshrs,
		QoSMasks: masks, QoSMBps: mbps,
	}
	if *sloP99 != 0 {
		spec.SLO = &api.SLOSpec{TargetP99NS: sloP99.Nanoseconds()}
	}
	if err := api.Validate(spec); err != nil {
		api.RenderFlagErrors(stderr, "hamsbench", err, benchFlags)
		return 2
	}
	targets := experiments.ExpandTargets(spec.Targets)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Profiles are validated up front (the exit-2 convention): a CPU
	// profile that cannot be created must not be discovered after the
	// run it was meant to capture has already burned its minutes.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "hamsbench: -cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "hamsbench: -cpuprofile: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(stderr, "hamsbench: -memprofile: %v\n", err)
			return 2
		}
		// The heap profile is written after the last target (see below);
		// creating the file now surfaces a bad path before any cell runs.
		defer f.Close()
		defer func() {
			runtime.GC() // flush recent frees so in-use numbers are exact
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "hamsbench: -memprofile: %v\n", err)
			}
		}()
	}
	o, err := spec.ExperimentOptions()
	if err != nil {
		fmt.Fprintf(stderr, "hamsbench: %v\n", err)
		return 2
	}
	o.Ctx = ctx
	// The run's outputs follow the same rule: a bad -json or -summary
	// path must not surface only after every target has run. -json is
	// probed without truncation, so an existing artifact survives a
	// failed run; it is rewritten once the run completes.
	summary := io.Discard
	var summaryFile *os.File
	if *summaryOut != "" {
		f, err := os.OpenFile(*summaryOut, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(stderr, "hamsbench: -summary: %v\n", err)
			return 2
		}
		defer f.Close() // error paths; the success path checks Close below
		summary, summaryFile = f, f
	}
	if *jsonOut != "" {
		f, err := os.OpenFile(*jsonOut, os.O_WRONLY|os.O_CREATE, 0o644)
		if err != nil {
			fmt.Fprintf(stderr, "hamsbench: -json: %v\n", err)
			return 2
		}
		f.Close()
		o.Recorder = &report.Recorder{}
	}
	// Checkpoint plumbing follows the validation-first convention: a
	// malformed image (or an uncreatable output path) must surface as
	// exit 2 before any cell has burned its minutes. A well-formed
	// image that does not match the scenario fails later, at restore.
	if *ckptIn != "" {
		img, err := api.FileCheckpoints{}.Checkpoint(*ckptIn)
		if err != nil {
			fmt.Fprintf(stderr, "hamsbench: -from-checkpoint: %v\n", err)
			return 2
		}
		o.Checkpoint = img
	}
	if *ckptOut != "" {
		f, err := os.Create(*ckptOut)
		if err != nil {
			fmt.Fprintf(stderr, "hamsbench: -checkpoint: %v\n", err)
			return 2
		}
		img, err := experiments.SampledCheckpoint(o)
		if err == nil {
			err = checkpoint.Encode(f, img)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(stderr, "hamsbench: -checkpoint: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s (platform %s, %d steps/thread of warm-up)\n", *ckptOut, img.Platform, img.Warmup)
	}
	if *progress {
		// One Fprintf per cell: a single Write under the hood, so lines
		// from concurrent workers do not shear.
		o.Progress = func(c report.Cell) {
			fmt.Fprintf(stderr, "cell %-44s %9.1fms\n", c.Key, float64(c.WallNS)/1e6)
		}
	}
	for _, tgt := range targets {
		if err := run(tgt, o, summary, stdout); err != nil {
			fmt.Fprintf(stderr, "hamsbench: %s: %v\n", tgt, err)
			return 1
		}
	}
	if summaryFile != nil {
		if err := summaryFile.Close(); err != nil {
			fmt.Fprintf(stderr, "hamsbench: -summary: %v\n", err)
			return 1
		}
	}
	if *jsonOut != "" {
		art := o.Recorder.Artifact(strings.Join(targets, "+"), *scale, *seed, *parallel)
		if err := report.WriteFile(*jsonOut, art); err != nil {
			fmt.Fprintf(stderr, "hamsbench: writing %s: %v\n", *jsonOut, err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s (%d cells)\n", *jsonOut, len(art.Cells))
	}
	return 0
}

// splitQoSFlags parses the -qos-masks/-qos-mbps assignment-list syntax
// (name=value,...); mask values and class names are validated by
// api.Validate like any JSON body's.
func splitQoSFlags(masksArg, mbpsArg string) (map[string]string, map[string]float64, error) {
	masks, err := qos.ParseAssignments(masksArg)
	if err != nil {
		return nil, nil, fmt.Errorf("-qos-masks: %w", err)
	}
	if len(masks) == 0 {
		masks = nil
	}
	var mbps map[string]float64
	asn, err := qos.ParseAssignments(mbpsArg)
	if err != nil {
		return nil, nil, fmt.Errorf("-qos-mbps: %w", err)
	}
	for name, v := range asn {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("-qos-mbps: class %q: want a MB/s number, got %q", name, v)
		}
		if mbps == nil {
			mbps = make(map[string]float64, len(asn))
		}
		mbps[name] = f
	}
	return masks, mbps, nil
}

func usage(w io.Writer) {
	fmt.Fprintf(w, "usage: hamsbench [-scale S] [-seed N] [-parallel N] [-json out.json] [-summary f.md] [-progress] [-qos-masks a=0xf,...] [-qos-mbps a=N,...] [-slo-p99 D] [-checkpoint img] [-from-checkpoint img] <%s|all>\n",
		strings.Join(experiments.TargetNames(), "|"))
	fmt.Fprintln(w, "       hamsbench compare [-threshold 0.15] [-summary file.md] baseline.json new.json")
}

// run executes one target, prints its tables to stdout and appends its
// markdown summary, if any, to summary.
func run(target string, o experiments.Options, summary, stdout io.Writer) error {
	start := time.Now()
	tables, md, err := experiments.RunTarget(target, o)
	if err != nil {
		return err
	}
	if _, err := io.WriteString(summary, md); err != nil {
		return fmt.Errorf("summary: %w", err)
	}
	for _, t := range tables {
		fmt.Fprintln(stdout, t)
	}
	fmt.Fprintf(stdout, "(%s generated in %v)\n\n", target, time.Since(start).Round(time.Millisecond))
	return nil
}

// setDiffMarkdown renders the compare gate's cell-set divergence as a
// markdown section ("" when the sets match).
func setDiffMarkdown(added, removed []string) string {
	if len(added)+len(removed) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "\n### Cell sets diverge (%d added, %d removed)\n\n", len(added), len(removed))
	for _, k := range added {
		fmt.Fprintf(&b, "- `+ %s`\n", k)
	}
	for _, k := range removed {
		fmt.Fprintf(&b, "- `- %s`\n", k)
	}
	b.WriteString("\nbaseline and candidate must cover the same cells; regenerate the baseline if the change is intentional\n")
	return b.String()
}

// appendFile appends text to path, creating it if needed.
func appendFile(path, text string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.WriteString(text)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// runCompare is the CI perf gate: diff two BENCH artifacts and fail
// on per-cell throughput regressions beyond the threshold. -summary
// appends the full markdown delta table to a file — pointed at
// $GITHUB_STEP_SUMMARY, the per-cell deltas land on the workflow run
// page so a regression is readable without rerunning anything.
// -host-threshold additionally gates the host-side (wall-clock)
// throughput channel: loose by design (host timing is noisy), it
// compares only hermetic cells — serial artifacts where both sides
// recorded a host reading — and fails on regressions only, never on
// improvements or missing readings. 0 disables the host gate.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", 0.15, "max tolerated fractional simulated-throughput drop per cell")
	hostThreshold := fs.Float64("host-threshold", 0, "max tolerated fractional host-throughput (wall clock) drop per cell; 0 disables the host gate")
	summary := fs.String("summary", "", "append a markdown delta table to this file (e.g. $GITHUB_STEP_SUMMARY)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() != 2 {
		usage(stderr)
		return 2
	}
	if *hostThreshold < 0 {
		fmt.Fprintf(stderr, "hamsbench compare: -host-threshold: want a non-negative fraction, got %g\n", *hostThreshold)
		return 2
	}
	base, err := report.Load(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "hamsbench compare: %v\n", err)
		return 2
	}
	cur, err := report.Load(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "hamsbench compare: %v\n", err)
		return 2
	}
	deltas, err := report.Deltas(base, cur)
	if err != nil {
		fmt.Fprintf(stderr, "hamsbench compare: %v\n", err)
		return 2
	}
	// Cell-set divergence is a gate failure in its own right, not a
	// silent skip: a cell present on only one side means the gate never
	// compared it, so a regression there would pass unexamined. Report
	// every added/removed key and fail; regenerating the baseline is the
	// fix when the divergence is intentional.
	added, removed := report.SetDiff(base, cur)
	var hostDeltas []report.Delta
	if *hostThreshold > 0 {
		hostDeltas, err = report.HostDeltas(base, cur)
		if err != nil {
			fmt.Fprintf(stderr, "hamsbench compare: %v\n", err)
			return 2
		}
	}
	if *summary != "" {
		md := report.Markdown(fmt.Sprintf("Bench gate: %s vs %s", fs.Arg(0), fs.Arg(1)), deltas, *threshold)
		if *hostThreshold > 0 {
			md += report.Markdown(fmt.Sprintf("Host-throughput gate (wall clock): %s vs %s", fs.Arg(0), fs.Arg(1)), hostDeltas, *hostThreshold)
		}
		md += setDiffMarkdown(added, removed)
		if err := appendFile(*summary, md); err != nil {
			fmt.Fprintf(stderr, "hamsbench compare: summary: %v\n", err)
			return 2
		}
	}
	if len(added)+len(removed) > 0 {
		fmt.Fprintf(stderr, "hamsbench compare: cell sets diverge (%d added, %d removed):\n", len(added), len(removed))
		for _, k := range added {
			fmt.Fprintf(stderr, "  + %s\n", k)
		}
		for _, k := range removed {
			fmt.Fprintf(stderr, "  - %s\n", k)
		}
		fmt.Fprintln(stderr, "baseline and candidate must cover the same cells; regenerate the baseline if the change is intentional")
		return 1
	}
	regs := report.Threshold(deltas, *threshold)
	if len(regs) > 0 {
		fmt.Fprintf(stderr, "hamsbench compare: %d cell(s) regressed beyond %.0f%%:\n", len(regs), *threshold*100)
		for _, r := range regs {
			fmt.Fprintf(stderr, "  %s\n", r)
		}
		return 1
	}
	if hregs := report.Threshold(hostDeltas, *hostThreshold); *hostThreshold > 0 && len(hregs) > 0 {
		fmt.Fprintf(stderr, "hamsbench compare: %d cell(s) lost host throughput beyond %.0f%%:\n", len(hregs), *hostThreshold*100)
		for _, r := range hregs {
			fmt.Fprintf(stderr, "  %s\n", r)
		}
		return 1
	}
	fmt.Fprintf(stdout, "compare: %d baseline cells, no regression beyond %.0f%%\n", len(base.Cells), *threshold*100)
	if *hostThreshold > 0 {
		fmt.Fprintf(stdout, "compare: %d hermetic cell(s), host throughput within %.0f%%\n", len(hostDeltas), *hostThreshold*100)
	}
	return 0
}
