package experiments

import (
	"fmt"
	"strings"
	"testing"

	"hams/internal/platform"
)

// quick is a fast option set for shape tests.
var quick = Options{Scale: 1e-6, Seed: 7}

func TestRunProducesWork(t *testing.T) {
	r, err := Run("hams-TE", "seqRd", quick, platform.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.CPU.Instructions == 0 || r.Units == 0 || r.CPU.Elapsed <= 0 {
		t.Fatalf("empty run: %+v", r.CPU)
	}
	if r.UnitsPerSec() <= 0 {
		t.Fatal("no throughput")
	}
	if r.Energy.Total() <= 0 {
		t.Fatal("no energy")
	}
}

func TestRunUnknownNamesFail(t *testing.T) {
	if _, err := Run("bogus", "seqRd", quick, platform.Options{}, nil); err == nil {
		t.Fatal("unknown platform accepted")
	}
	if _, err := Run("oracle", "bogus", quick, platform.Options{}, nil); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// Shape: the paper's core ordering on the software-vs-hardware axis.
func TestShapeHAMSBeatsMmap(t *testing.T) {
	wins := 0
	workloads := []string{"seqRd", "seqWr", "update", "BFS", "rndRd"}
	for _, wl := range workloads {
		base, err := Run("mmap", wl, quick, platform.Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Run("hams-TE", wl, quick, platform.Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.CPU.MIPS() > base.CPU.MIPS() {
			wins++
		}
	}
	if wins < len(workloads)-1 {
		t.Fatalf("hams-TE won only %d/%d workloads vs mmap", wins, len(workloads))
	}
}

// Shape: extend mode outperforms persist mode (§VI-C: persist adds
// ~34% memory delay).
func TestShapeExtendBeatsPersist(t *testing.T) {
	for _, pair := range [][2]string{{"hams-LE", "hams-LP"}, {"hams-TE", "hams-TP"}} {
		e, err := Run(pair[0], "seqWr", quick, platform.Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Run(pair[1], "seqWr", quick, platform.Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if e.CPU.Elapsed > p.CPU.Elapsed {
			t.Fatalf("%s (%v) slower than %s (%v)", pair[0], e.CPU.Elapsed, pair[1], p.CPU.Elapsed)
		}
	}
}

// Shape: tight topology beats loose (the DDR4-vs-PCIe datapath).
func TestShapeTightBeatsLoose(t *testing.T) {
	le, err := Run("hams-LE", "seqRd", quick, platform.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	te, err := Run("hams-TE", "seqRd", quick, platform.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if te.CPU.Elapsed >= le.CPU.Elapsed {
		t.Fatalf("hams-TE (%v) not faster than hams-LE (%v)", te.CPU.Elapsed, le.CPU.Elapsed)
	}
}

// Shape: oracle upper-bounds every platform.
func TestShapeOracleUpperBound(t *testing.T) {
	or, err := Run("oracle", "rndRd", quick, platform.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, pn := range []string{"mmap", "hams-TE", "flatflash-M", "optane-M"} {
		r, err := Run(pn, "rndRd", quick, platform.Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.CPU.Elapsed < or.CPU.Elapsed {
			t.Fatalf("%s (%v) beat the oracle (%v)", pn, r.CPU.Elapsed, or.CPU.Elapsed)
		}
	}
}

// Shape: HAMS saves energy vs mmap (§VI-C: 41%/45% lower).
func TestShapeHAMSSavesEnergy(t *testing.T) {
	base, err := Run("mmap", "seqWr", quick, platform.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run("hams-TE", "seqWr", quick, platform.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Energy.Total() >= base.Energy.Total() {
		t.Fatalf("hams-TE energy %.3f >= mmap %.3f", r.Energy.Total(), base.Energy.Total())
	}
}

// Shape: the loose topology's DMA share exceeds the tight topology's
// (Fig. 10a motivation for advanced HAMS).
func TestShapeLooseDMAShareHigher(t *testing.T) {
	share := func(pn string) float64 {
		r, err := Run(pn, "seqRd", quick, platform.Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		cs := r.MoS
		den := float64(cs.NVDIMMTime + cs.DMATime + cs.SSDTime + cs.WaitTime)
		if den == 0 {
			return 0
		}
		return float64(cs.DMATime) / den
	}
	l, tt := share("hams-LE"), share("hams-TE")
	if l <= tt {
		t.Fatalf("loose DMA share %.2f <= tight %.2f", l, tt)
	}
}

func TestStaticTables(t *testing.T) {
	for _, tb := range []string{Table1().String(), Table2().String(), Table3().String()} {
		if len(strings.Split(strings.TrimSpace(tb), "\n")) < 4 {
			t.Fatalf("table too short:\n%s", tb)
		}
	}
	if !strings.Contains(Table3().String(), "seqRd") {
		t.Fatal("Table3 missing workloads")
	}
}

func TestFig5Tables(t *testing.T) {
	tabs, err := Fig5(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 3 {
		t.Fatalf("Fig5 returned %d tables", len(tabs))
	}
	// 5b has 6 depth rows.
	if rows := strings.Count(tabs[1].String(), "\n"); rows < 8 {
		t.Fatalf("Fig5b too short:\n%s", tabs[1])
	}
}

func TestFig20PageSizeSweepRuns(t *testing.T) {
	// A smaller sweep through the same code path as Fig20a: both
	// extreme page sizes must run and produce throughput.
	for _, pg := range []uint64{4096, 1 << 20} {
		r, err := Run("hams-TE", "rndSel", quick, platform.Options{HAMSPage: pg}, nil)
		if err != nil {
			t.Fatalf("page %d: %v", pg, err)
		}
		if r.Units == 0 {
			t.Fatalf("page %d: no ops", pg)
		}
	}
}

func TestHitRateNearPaper(t *testing.T) {
	// §VI-C: NVDIMM hit rate ~94% on average. Accept a broad band.
	r, err := Run("hams-TE", "update", quick, platform.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	hr := r.MoS.HitRate()
	if hr < 0.80 || hr > 1.0 {
		t.Fatalf("hit rate %.3f outside [0.80, 1.0]", hr)
	}
}

// Acceptance: a set-associative sharded geometry must strictly beat
// the seed's direct-mapped single bank on the rndWr hit rate.
func TestSweepAssociativityBeatsDirectMappedOnRndWr(t *testing.T) {
	points := []SweepPoint{
		{Ways: 1, Banks: 1},
		{Ways: 4, Banks: 4},
	}
	res, err := RunSweep(quick, []string{"rndWr"}, points)
	if err != nil {
		t.Fatal(err)
	}
	direct, assoc := res[0], res[1]
	if assoc.HitRate() <= direct.HitRate() {
		t.Fatalf("4-way × 4-bank hit rate %.6f not above direct-mapped %.6f",
			assoc.HitRate(), direct.HitRate())
	}
	if assoc.Run.UnitsPerSec() <= direct.Run.UnitsPerSec() {
		t.Fatalf("4-way × 4-bank throughput %.0f/s not above direct-mapped %.0f/s",
			assoc.Run.UnitsPerSec(), direct.Run.UnitsPerSec())
	}
}

func TestSweepTableShape(t *testing.T) {
	tabs, err := AssocShardSweep(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 3 {
		t.Fatalf("sweep returned %d tables, want 3", len(tabs))
	}
	for _, tab := range tabs {
		countRows(t, tab, len(DefaultSweepPoints()))
	}
	if !strings.Contains(tabs[0].String(), "clock") || !strings.Contains(tabs[0].String(), "random") {
		t.Fatalf("sweep missing policy rows:\n%s", tabs[0])
	}
}

func TestAblationTable(t *testing.T) {
	tab, err := Ablation(quick)
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	if !strings.Contains(out, "hardware automation") || !strings.Contains(out, "Z-NAND") {
		t.Fatalf("ablation table incomplete:\n%s", out)
	}
}

// Shape: hardware automation must beat the §VII software-assisted
// variant (page fault per miss).
func TestShapeHardwareAutomationWins(t *testing.T) {
	hw, err := Run("hams-LE", "seqRd", quick, platform.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := Run("hams-SW", "seqRd", quick, platform.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sw.CPU.Elapsed <= hw.CPU.Elapsed {
		t.Fatalf("hams-SW (%v) not slower than hams-LE (%v)", sw.CPU.Elapsed, hw.CPU.Elapsed)
	}
}

// Shape: a TLC archive must be slower than Z-NAND (the ULL-Flash
// premise of the whole design).
func TestShapeZNANDMatters(t *testing.T) {
	z, err := Run("hams-TE", "seqRd", quick, platform.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tlc, err := Run("hams-TE", "seqRd", quick, platform.Options{ArchiveTLC: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tlc.UnitsPerSec() >= z.UnitsPerSec() {
		t.Fatalf("TLC archive (%f/s) not slower than Z-NAND (%f/s)", tlc.UnitsPerSec(), z.UnitsPerSec())
	}
}

// tiny runs the heavyweight figure functions end to end at a scale
// where the whole set costs a few seconds.
var tiny = Options{Scale: 2e-7, Seed: 3}

func countRows(t *testing.T, tab fmt.Stringer, want int) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(tab.String()), "\n")
	if got := len(lines) - 3; got != want { // title + header + separator
		t.Fatalf("rows = %d, want %d\n%s", got, want, tab)
	}
}

func TestFig6RowCounts(t *testing.T) {
	tabs, err := Fig6(tiny)
	if err != nil {
		t.Fatal(err)
	}
	countRows(t, tabs[0], 4) // 4 micro workloads
	countRows(t, tabs[1], 5) // 5 SQLite workloads
}

func TestFig7RowCounts(t *testing.T) {
	tabs, err := Fig7(tiny)
	if err != nil {
		t.Fatal(err)
	}
	countRows(t, tabs[0], 9)
	countRows(t, tabs[1], 9)
}

func TestFig16RowCounts(t *testing.T) {
	tabs, err := Fig16(tiny)
	if err != nil {
		t.Fatal(err)
	}
	countRows(t, tabs[0], 7) // micro + rodinia
	countRows(t, tabs[1], 5) // sqlite
}

func TestFig17Fig18Fig19RowCounts(t *testing.T) {
	t17, err := Fig17(tiny)
	if err != nil {
		t.Fatal(err)
	}
	countRows(t, t17, 12*5)
	t18, err := Fig18(tiny)
	if err != nil {
		t.Fatal(err)
	}
	countRows(t, t18, 12*4)
	t19, err := Fig19(tiny)
	if err != nil {
		t.Fatal(err)
	}
	countRows(t, t19, 12*5)
}

func TestFig20RowCounts(t *testing.T) {
	tabs, err := Fig20(tiny)
	if err != nil {
		t.Fatal(err)
	}
	countRows(t, tabs[0], 5)
	countRows(t, tabs[1], 5)
}

func TestHeadlineRowCount(t *testing.T) {
	tab, err := Headline(tiny)
	if err != nil {
		t.Fatal(err)
	}
	countRows(t, tab, 4)
}
