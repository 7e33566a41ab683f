// Benchmarks: one per table/figure of the paper's evaluation. Each
// benchmark regenerates the corresponding artifact through the same
// code path as cmd/hamsbench; the reported ns/op is the cost of
// producing the whole figure at the benchmark scale. Run the CLI with
// a larger -scale for publication-shaped numbers (EXPERIMENTS.md).
package hams

import (
	"testing"

	"hams/internal/experiments"
)

// benchOpts keeps `go test -bench=.` under a few minutes end to end.
// Parallel is 0 (= GOMAXPROCS), so every engine-ported figure
// benchmark exercises the concurrent path by default; the *Serial
// variants below measure the 1-worker baseline for comparison.
var benchOpts = experiments.Options{Scale: 5e-7, Seed: 42}

// serialOpts pins the engine to one worker.
var serialOpts = experiments.Options{Scale: 5e-7, Seed: 42, Parallel: 1}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table1().String() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table2().String() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table3().String() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tabs, err := experiments.Fig5(benchOpts)
		if err != nil || len(tabs) != 3 {
			b.Fatal("Fig5", err)
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig16(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig17(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig17(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig18(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig18(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig19(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig19(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig20(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig20(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeadline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Headline(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMoSHit measures the steady-state NVDIMM-hit path of the
// public API (the latency the paper calls "DRAM-like").
func BenchmarkMoSHit(b *testing.B) {
	cfg := DefaultConfig(Extend, Tight)
	cfg.NVDIMM.DRAM.Capacity = 64 * MiB
	cfg.PinnedBytes = 16 * MiB
	m, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 64)
	if _, err := m.Write(0, buf); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Read(0, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMoSMissFill measures the hardware miss path (NVMe fill
// composed by the controller).
func BenchmarkMoSMissFill(b *testing.B) {
	cfg := DefaultConfig(Extend, Tight)
	cfg.NVDIMM.DRAM.Capacity = 64 * MiB
	cfg.PinnedBytes = 16 * MiB
	m, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 64)
	stride := m.PageBytes() * uint64(m.Stats().Accesses+1)
	_ = stride
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := (uint64(i) * m.PageBytes()) % (m.Capacity() - 64)
		if _, err := m.Read(addr, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Ablation(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// Serial-vs-parallel pairs: the ratio is the engine's speedup on this
// host (cells are independent, so it should approach min(GOMAXPROCS,
// cell count) for the wide matrices).

func BenchmarkFig16Serial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig16(serialOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig20Serial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig20(serialOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AssocShardSweep(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AssocShardSweep(serialOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplay covers the full record → codec → replay → verify
// path of every replay cell (each cell runs its workload twice: live
// and replayed).
func BenchmarkReplay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Replay(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMixed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Mixed(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQoS runs the RDT-style isolation sweep (four static CLOS
// policy cells plus the SLO-controlled auto cell over the
// stream+latency co-location scenario).
func BenchmarkQoS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.QoS(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}
