package mem

import (
	"bytes"
	"math/rand"
	"testing"

	"hams/internal/checkpoint"
)

// warmByPage is Warm's reference: one Get and then MoveToFront or
// InsertFront per page, as the page caches warmed before runs.
func warmByPage(l *PageLRU, first, end uint64, capacity int) {
	for p := first; p < end && l.Len() < capacity; p++ {
		if slot, ok := l.Get(p); ok {
			l.MoveToFront(slot)
		} else {
			l.InsertFront(p)
		}
	}
}

// TestPageLRUWarmMatchesInserts drives two LRUs through the same
// seeded operations. One warms ranges as runs, the other page by page;
// after every step they must agree on every page's slot, the recency
// order, Len, Slots and the checkpoint bytes. Warm ranges span several
// slot chunks and land on resident pages, recycled slots and the
// capacity limit.
func TestPageLRUWarmMatchesInserts(t *testing.T) {
	const space = 2 * lruChunkSize // pages the test draws from
	rng := rand.New(rand.NewSource(7))
	got, want := NewPageLRU(), NewPageLRU()
	// Start from an empty LRU with no index chunks.
	got.Warm(space/2, space, space)
	warmByPage(want, space/2, space, space)
	resident := func() (uint64, bool) {
		p := uint64(rng.Intn(space))
		_, ok := want.Get(p)
		return p, ok
	}
	longest := int32(0)
	for step := 0; step < 250; step++ {
		switch op := rng.Intn(10); {
		case op < 3:
			first := uint64(rng.Intn(space))
			end := min(space, first+uint64(rng.Intn(8*lruSlotChunk)))
			capacity := space
			if rng.Intn(2) == 0 {
				capacity = want.Len() + rng.Intn(int(end-first)+64)
			}
			got.Warm(first, end, capacity)
			warmByPage(want, first, end, capacity)
		case op == 3:
			if p, ok := resident(); !ok {
				if g, w := got.InsertFront(p), want.InsertFront(p); g != w {
					t.Fatalf("step %d: InsertFront(%d) = slot %d, want %d", step, p, g, w)
				}
			}
		case op == 4 || op == 5:
			// Touch pages; a second touch finds one at the front.
			for k := rng.Intn(64); k > 0; k-- {
				if p, ok := resident(); ok {
					g, _ := got.Get(p)
					w, _ := want.Get(p)
					for range 1 + rng.Intn(2) {
						got.MoveToFront(g)
						want.MoveToFront(w)
					}
				}
			}
		case op == 6:
			// Remove a page, sometimes after making it the front.
			if p, ok := resident(); ok {
				g, _ := got.Get(p)
				w, _ := want.Get(p)
				if rng.Intn(2) == 0 {
					got.MoveToFront(g)
					want.MoveToFront(w)
				}
				got.Remove(g)
				want.Remove(w)
			}
		default:
			k := rng.Intn(2 * lruSlotChunk)
			if rng.Intn(4) == 0 {
				k = want.Len()
			}
			for ; k > 0 && want.Len() > 0; k-- {
				gp, gs := got.RemoveBack()
				wp, ws := want.RemoveBack()
				if gp != wp || gs != ws {
					t.Fatalf("step %d: RemoveBack = (%d, %d), want (%d, %d)", step, gp, gs, wp, ws)
				}
			}
		}
		for _, r := range got.runs {
			longest = max(longest, r.n)
		}
		sameLRU(t, step, got, want, space)
	}
	if longest < 2*lruSlotChunk {
		t.Fatalf("longest run covered %d slots, want runs spanning several chunks", longest)
	}
}

// sameLRU fails the test unless got and want agree on every page's
// slot in [0, space), the tail→head order, Len, Slots and SaveState.
func sameLRU(t *testing.T, step int, got, want *PageLRU, space uint64) {
	t.Helper()
	if got.Len() != want.Len() || got.Slots() != want.Slots() {
		t.Fatalf("step %d: Len, Slots = %d, %d, want %d, %d", step, got.Len(), got.Slots(), want.Len(), want.Slots())
	}
	for p := uint64(0); p < space; p++ {
		gs, gok := got.Get(p)
		ws, wok := want.Get(p)
		if gs != ws || gok != wok {
			t.Fatalf("step %d: Get(%d) = (%d, %v), want (%d, %v)", step, p, gs, gok, ws, wok)
		}
	}
	gs, ws := got.TailSlot(), want.TailSlot()
	for i := 0; gs >= 0 || ws >= 0; i++ {
		if gs != ws || got.PageOf(gs) != want.PageOf(ws) {
			t.Fatalf("step %d: recency position %d holds slot %d, want %d", step, i, gs, ws)
		}
		gs, ws = got.PrevOf(gs), want.PrevOf(ws)
	}
	var ge, we checkpoint.Enc
	got.SaveState(&ge)
	want.SaveState(&we)
	if !bytes.Equal(ge.Bytes(), we.Bytes()) {
		t.Fatalf("step %d: SaveState bytes differ", step)
	}
}
