package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"slices"
	"strings"
	"time"
)

// profileShares attributes the samples of a CPU profile taken while
// reps ran to layers. It reads the profile's stacks with
// `go tool pprof -traces`, which needs only the Go toolchain.
func profileShares(path string) (map[string]float64, error) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		return nil, fmt.Errorf("go is not on PATH: %w", err)
	}
	var stderr bytes.Buffer
	cmd := exec.Command(gobin, "tool", "pprof", "-tagfocus", repLabel+"=rep", "-traces", path)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.Bytes())
	}
	return attribute(out)
}

// attribute splits `pprof -traces` text into stacks and charges each
// stack's time to one layer: that of its innermost frame from a hams
// package or from this benchmark's own code; a stack with neither is
// runtime. It returns each layer's share of the total.
func attribute(traces []byte) (map[string]float64, error) {
	byLayer := map[string]time.Duration{}
	var total time.Duration
	var cur time.Duration
	layer := ""
	flush := func() {
		if cur > 0 {
			if layer == "" {
				layer = "runtime"
			}
			byLayer[layer] += cur
			total += cur
		}
		cur, layer = 0, ""
	}
	sc := bufio.NewScanner(bytes.NewReader(traces))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 || !strings.HasPrefix(line, " ") {
			continue // header lines
		}
		fn := fields[0]
		if d, err := time.ParseDuration(fields[0]); err == nil && len(fields) > 1 {
			// A stack's first line carries its sample time.
			flush()
			cur, fn = d, fields[1]
		}
		if layer == "" {
			layer = layerOf(fn)
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("profile holds no samples")
	}
	shares := map[string]float64{}
	for l, d := range byLayer {
		shares[l] = float64(d) / float64(total)
	}
	return shares, nil
}

// layerOf names the layer a frame belongs to, or "" for a frame from
// neither a hams package nor this benchmark (standard library and
// runtime frames).
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, "hams/internal/")
	if !ok {
		if strings.HasPrefix(fn, "hams.") || strings.HasPrefix(fn, "hams/") {
			return "other"
		}
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	if l := strings.ReplaceAll(pkg, "/", "-"); slices.Contains(profLayers, l) {
		return l
	}
	return "other"
}
