package ftl

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"hams/internal/checkpoint"
	"hams/internal/sim"
)

// churn drives n seeded overwrites (one in 16 a trim) over the first
// span LBAs, enough on the bench geometry to keep GC running.
func churn(t *testing.T, f *FTL, rng *rand.Rand, now sim.Time, span uint64, n int) sim.Time {
	t.Helper()
	buf := make([]byte, f.PageBytes())
	for i := 0; i < n; i++ {
		lba := rng.Uint64() % span
		if rng.Intn(16) == 0 {
			f.Trim(lba)
			continue
		}
		buf[0], buf[1] = byte(lba), byte(i)
		d, err := f.Write(now, lba, buf)
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		now = d
	}
	return now
}

// saveFTL checkpoints the array and the FTL, in device order.
func saveFTL(f *FTL) []byte {
	var enc checkpoint.Enc
	f.arr.SaveState(&enc)
	f.SaveState(&enc)
	return enc.Bytes()
}

// restoreFTL overlays an image from saveFTL onto a fresh array + FTL.
func restoreFTL(image []byte) (*FTL, error) {
	f := New(benchArray(), DefaultConfig())
	d := checkpoint.NewDec(image)
	if err := f.arr.RestoreState(d); err != nil {
		return f, err
	}
	if err := f.RestoreState(d); err != nil {
		return f, err
	}
	return f, d.Finish()
}

func sameMappings(t *testing.T, a, b *FTL) {
	t.Helper()
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged:\n live     %+v\n restored %+v", a.Stats(), b.Stats())
	}
	if !slices.EqualFunc(a.l2p.chunks, b.l2p.chunks, slices.Equal) {
		t.Fatal("l2p diverged")
	}
	if !slices.EqualFunc(a.valid, b.valid, slices.Equal) {
		t.Fatal("valid-page counts diverged")
	}
}

// TestCheckpointRebuildsValidCounts pins the valid counts RestoreState
// derives from p2l against the ones the live FTL maintained: after a
// restore mid-churn, identical writes through more GC runs must leave
// both FTLs with the same stats, l2p and block table.
func TestCheckpointRebuildsValidCounts(t *testing.T) {
	live := New(benchArray(), DefaultConfig())
	const span = 20000 // of 31744 exported pages: GC has to move data
	now := churn(t, live, rand.New(rand.NewSource(1)), 0, span, 40000)
	if live.Stats().GCRuns == 0 {
		t.Fatal("warm-up never ran GC")
	}
	restored, err := restoreFTL(saveFTL(live))
	if err != nil {
		t.Fatal(err)
	}
	sameMappings(t, live, restored)

	gcBefore := live.Stats().GCRuns
	churn(t, live, rand.New(rand.NewSource(2)), now, span, 40000)
	churn(t, restored, rand.New(rand.NewSource(2)), now, span, 40000)
	if live.Stats().GCRuns == gcBefore {
		t.Fatal("post-restore churn never ran GC")
	}
	sameMappings(t, live, restored)
	for lba := uint64(0); lba < span; lba++ {
		if got, want := restored.Peek(lba), live.Peek(lba); !slices.Equal(got, want) {
			t.Fatalf("lba %d: restored data differs", lba)
		}
	}
}

// TestRestoreRejectsHostileImages mutates valid FTLs — one mid-GC, one
// still allocating virgin blocks — in ways whose image, once restored,
// would index outside the block table or alias a free block. Each must
// fail at restore with ErrCorrupt from the check named in want, and
// leave the target FTL intact, so writes after the rejection never
// panic.
func TestRestoreRejectsHostileImages(t *testing.T) {
	g := benchArray().Geo
	source := func(writes int) *FTL {
		f := New(benchArray(), DefaultConfig())
		now := churn(t, f, rand.New(rand.NewSource(3)), 0, 20000, writes)
		if _, err := f.Write(now, 3, []byte{3}); err != nil { // the lba cases remap
			t.Fatal(err)
		}
		return f
	}
	mid, early := source(41000), source(1000)
	if mid.Stats().GCRuns == 0 || early.Stats().GCRuns != 0 {
		t.Fatal("want one source past its first GC and one before it")
	}
	images := map[bool][]byte{false: saveFTL(mid), true: saveFTL(early)}

	pageIn := func(plane, block, page int) uint64 {
		ad := mid.planeCoords(plane)
		ad.Block, ad.Page = block, page
		return uint64(g.Compose(ad))
	}
	// remap moves lba's mapping to ppn, keeping l2p and p2l inverse.
	remap := func(f *FTL, lba, ppn uint64) {
		old, _ := f.l2p.get(lba)
		f.p2l.del(old)
		f.l2p.set(lba, ppn)
		f.p2l.set(ppn, lba)
	}
	recycledPlane := func(t *testing.T, f *FTL) int {
		for p, r := range f.recycled {
			if len(r) > 0 {
				return p
			}
		}
		t.Fatal("no plane has a recycled block")
		return 0
	}
	cases := []struct {
		name   string
		early  bool // mutate the pre-GC source
		want   string
		mutate func(t *testing.T, f *FTL)
	}{
		{"negative virgin cursor", false, "virgin cursor", func(t *testing.T, f *FTL) { f.virginNext[0] = -5 }},
		{"virgin cursor past the plane", false, "virgin cursor", func(t *testing.T, f *FTL) { f.virginNext[0] = g.BlocksPerPln + 1 }},
		{"recycled block never allocated", true, "recycles block", func(t *testing.T, f *FTL) {
			f.recycled[0] = append(f.recycled[0], f.virginNext[0])
		}},
		{"negative recycled block", false, "recycles block", func(t *testing.T, f *FTL) { f.recycled[0] = append(f.recycled[0], -1) }},
		{"recycled block listed twice", false, "recycles block", func(t *testing.T, f *FTL) {
			p := recycledPlane(t, f)
			f.recycled[p] = append(f.recycled[p], f.recycled[p][0])
		}},
		{"active block below -1", false, "active block", func(t *testing.T, f *FTL) { f.active[0].block = -2 }},
		{"active block never allocated", true, "active block", func(t *testing.T, f *FTL) { f.active[0].block = f.virginNext[0] }},
		{"active block is free", false, "active block", func(t *testing.T, f *FTL) {
			p := recycledPlane(t, f)
			f.active[p].block = f.recycled[p][0]
		}},
		{"negative next page", false, "active block", func(t *testing.T, f *FTL) { f.active[0].nextPage = -1 }},
		{"next page past the block", false, "active block", func(t *testing.T, f *FTL) { f.active[0].nextPage = g.PagesPerBlk + 1 }},
		{"plane cursor out of range", false, "plane cursor", func(t *testing.T, f *FTL) { f.planeRR = g.Planes() }},
		{"l2p target beyond the geometry", false, "p2l disagrees", func(t *testing.T, f *FTL) { f.l2p.set(25000, g.TotalPages()+5) }},
		{"p2l key beyond the geometry", false, "beyond the geometry", func(t *testing.T, f *FTL) { remap(f, 3, g.TotalPages()+5) }},
		{"p2l target disagrees with l2p", false, "l2p disagrees", func(t *testing.T, f *FTL) {
			ppn, _ := f.l2p.get(3)
			f.p2l.set(ppn, 1<<40)
		}},
		{"live page in a free block", false, "free or unwritten block", func(t *testing.T, f *FTL) {
			p := recycledPlane(t, f)
			remap(f, 3, pageIn(p, f.recycled[p][0], 0))
		}},
		{"live page in a virgin block", true, "free or unwritten block", func(t *testing.T, f *FTL) {
			remap(f, 3, pageIn(0, f.virginNext[0], 0))
		}},
		{"live page past the write cursor", true, "free or unwritten block", func(t *testing.T, f *FTL) {
			a := f.active[0]
			remap(f, 3, pageIn(0, a.block, a.nextPage))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src, err := restoreFTL(images[tc.early])
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(t, src)
			var enc checkpoint.Enc
			src.SaveState(&enc)

			dst := New(benchArray(), DefaultConfig())
			err = dst.RestoreState(checkpoint.NewDec(enc.Bytes()))
			if !errors.Is(err, checkpoint.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RestoreState = %v, want ErrCorrupt about %q", err, tc.want)
			}
			// The rejected image left dst untouched: it still works.
			churn(t, dst, rand.New(rand.NewSource(4)), 0, 20000, 2000)
		})
	}
}
