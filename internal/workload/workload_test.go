package workload

import (
	"slices"
	"testing"

	"hams/internal/cpu"
	"hams/internal/mem"
)

func TestAllHasTwelveWorkloads(t *testing.T) {
	specs := All()
	if len(specs) != 12 {
		t.Fatalf("len = %d, want 12", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.Name] {
			t.Fatalf("duplicate %s", s.Name)
		}
		seen[s.Name] = true
		if s.Instructions <= 0 || s.Threads <= 0 || s.DatasetBytes == 0 {
			t.Fatalf("%s: incomplete spec %+v", s.Name, s)
		}
		if s.LoadRatio <= 0 || s.LoadRatio >= 1 || s.StoreRatio < 0 || s.StoreRatio >= 1 {
			t.Fatalf("%s: bad ratios", s.Name)
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("BFS")
	if err != nil || s.Kind != Rodinia {
		t.Fatalf("ByName(BFS) = %+v, %v", s, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestNamesOrder(t *testing.T) {
	n := Names()
	if n[0] != "seqRd" || n[len(n)-1] != "NN" {
		t.Fatalf("names = %v", n)
	}
}

func TestStreamsRespectThreadCount(t *testing.T) {
	for _, s := range All() {
		streams := s.Streams(DefaultOptions())
		if len(streams) != s.Threads {
			t.Fatalf("%s: %d streams, want %d", s.Name, len(streams), s.Threads)
		}
	}
}

func TestStreamsDeterministic(t *testing.T) {
	s, _ := ByName("rndRd")
	o := DefaultOptions()
	o.Scale = 1e-7
	a := drain(t, s.Streams(o)[0])
	b := drain(t, s.Streams(o)[0])
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Compute != b[i].Compute || len(a[i].Acc) != len(b[i].Acc) {
			t.Fatalf("step %d differs", i)
		}
		for j := range a[i].Acc {
			if a[i].Acc[j] != b[i].Acc[j] {
				t.Fatalf("step %d access %d differs", i, j)
			}
		}
	}
}

func TestStreamSeedsDecorrelateSpecs(t *testing.T) {
	// Two random workloads sharing Options.Seed must not replay the
	// same address sequence: the per-spec seed mixes the name in.
	rd, _ := ByName("rndRd")
	wr, _ := ByName("rndWr")
	o := DefaultOptions()
	o.Scale = 1e-7
	a := drain(t, rd.Streams(o)[0])
	b := drain(t, wr.Streams(o)[0])
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	same := 0
	for i := 0; i < n; i++ {
		if len(a[i].Acc) > 0 && len(b[i].Acc) > 0 && a[i].Acc[0].Addr == b[i].Acc[0].Addr {
			same++
		}
	}
	if same == n {
		t.Fatal("rndRd and rndWr walk identical address sequences under a shared seed")
	}
	// And per-thread streams of one spec must differ from each other.
	sA := rd.Streams(o)
	x, y := drain(t, sA[0]), drain(t, sA[1])
	n = min(len(x), len(y))
	same = 0
	for i := 0; i < n; i++ {
		if len(x[i].Acc) > 0 && len(y[i].Acc) > 0 && x[i].Acc[0].Addr-y[i].Acc[0].Addr == 0 {
			same++
		}
	}
	if same == n {
		t.Fatal("thread streams are identical")
	}
}

func TestStreamSeedChangesWithOptionsSeed(t *testing.T) {
	s, _ := ByName("rndWr")
	o1 := DefaultOptions()
	o1.Scale = 1e-7
	o2 := o1
	o2.Seed = o1.Seed + 1
	a := drain(t, s.Streams(o1)[0])
	b := drain(t, s.Streams(o2)[0])
	n := min(len(a), len(b))
	diff := false
	for i := 0; i < n; i++ {
		if len(a[i].Acc) > 0 && len(b[i].Acc) > 0 && a[i].Acc[0].Addr != b[i].Acc[0].Addr {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("changing Options.Seed did not change the stream")
	}
}

// drain collects a stream's steps, copying each step's accesses out of
// the buffer the stream reuses on its next call.
func drain(t *testing.T, s cpu.Stream) []cpu.Step {
	t.Helper()
	var out []cpu.Step
	for {
		st, ok := s.Next()
		if !ok {
			return out
		}
		st.Acc = slices.Clone(st.Acc)
		out = append(out, st)
		if len(out) > 5_000_000 {
			t.Fatal("stream does not terminate")
		}
	}
}

// ratios measured over a drained stream must approximate Table III.
func TestInstructionMixMatchesTableIII(t *testing.T) {
	o := DefaultOptions()
	o.Scale = 2e-7
	for _, s := range All() {
		var loads, stores, compute int64
		for _, st := range s.Streams(o) {
			for {
				step, ok := st.Next()
				if !ok {
					break
				}
				compute += step.Compute
				for _, a := range step.Acc {
					lines := int64(mem.AlignUp(a.Addr+uint64(a.Size), 64)-mem.AlignDown(a.Addr, 64)) / 64
					if a.Op == mem.Read {
						loads += lines
					} else {
						stores += lines
					}
				}
			}
		}
		total := loads + stores + compute
		if total == 0 {
			t.Fatalf("%s: empty stream", s.Name)
		}
		lr := float64(loads) / float64(total)
		sr := float64(stores) / float64(total)
		if lr < s.LoadRatio-0.06 || lr > s.LoadRatio+0.06 {
			t.Errorf("%s: load ratio %.3f, want %.2f", s.Name, lr, s.LoadRatio)
		}
		if sr < s.StoreRatio-0.06 || sr > s.StoreRatio+0.06 {
			t.Errorf("%s: store ratio %.3f, want %.2f", s.Name, sr, s.StoreRatio)
		}
	}
}

func TestInstructionBudgetScales(t *testing.T) {
	s, _ := ByName("KMN")
	o := DefaultOptions()
	o.Scale = 1e-7
	small := totalInstr(t, s, o)
	o.Scale = 4e-7
	big := totalInstr(t, s, o)
	if big < 3*small || big > 5*small {
		t.Fatalf("scaling broken: %d vs %d", small, big)
	}
	// Budget should approximate Instructions*Scale.
	want := float64(s.Instructions) * o.Scale
	if float64(big) < 0.8*want || float64(big) > 1.25*want {
		t.Fatalf("budget %d, want ~%.0f", big, want)
	}
}

func totalInstr(t *testing.T, s Spec, o Options) int64 {
	t.Helper()
	var n int64
	for _, st := range s.Streams(o) {
		for {
			step, ok := st.Next()
			if !ok {
				break
			}
			n += instrOf(step)
		}
	}
	return n
}

func TestSequentialMicroIsSequential(t *testing.T) {
	s, _ := ByName("seqRd")
	o := DefaultOptions()
	o.Scale = 1e-7
	st := s.Streams(o)[0]
	var prev uint64
	first := true
	for {
		step, ok := st.Next()
		if !ok {
			break
		}
		a := step.Acc[0] // the mapped page access comes first
		if !first && a.Addr != prev+o.PageBytes && a.Addr >= prev {
			t.Fatalf("non-sequential stride: %#x after %#x", a.Addr, prev)
		}
		prev = a.Addr
		first = false
	}
}

func TestAccessesStayWithinDataset(t *testing.T) {
	o := DefaultOptions()
	o.Scale = 1e-7
	for _, s := range All() {
		for _, st := range s.Streams(o) {
			for {
				step, ok := st.Next()
				if !ok {
					break
				}
				for _, a := range step.Acc {
					if a.End() > s.DatasetBytes {
						t.Fatalf("%s: access %v beyond dataset %d", s.Name, a, s.DatasetBytes)
					}
				}
			}
		}
	}
}

func TestProgressInterface(t *testing.T) {
	o := DefaultOptions()
	o.Scale = 1e-7
	for _, s := range All() {
		st := s.Streams(o)[0]
		p, ok := st.(Progress)
		if !ok {
			t.Fatalf("%s: stream does not report progress", s.Name)
		}
		st.Next()
		st.Next()
		if p.Units() != 2 {
			t.Fatalf("%s: units = %d, want 2", s.Name, p.Units())
		}
	}
}

func TestKindString(t *testing.T) {
	if Micro.String() != "micro" || SQLite.String() != "sqlite" || Rodinia.String() != "rodinia" {
		t.Fatal("Kind.String")
	}
}

func TestFig20DatasetOverride(t *testing.T) {
	s, _ := ByName("update")
	o := DefaultOptions()
	o.Scale = 2e-6
	o.DatasetBytes = 44 * mem.GiB
	st := s.Streams(o)[0]
	maxAddr := uint64(0)
	for {
		step, ok := st.Next()
		if !ok {
			break
		}
		for _, a := range step.Acc {
			if a.End() > maxAddr {
				maxAddr = a.End()
			}
		}
	}
	if maxAddr <= 11*mem.GiB {
		t.Fatalf("override ignored: max addr %d", maxAddr)
	}
}
