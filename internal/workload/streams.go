package workload

import (
	"math/rand"

	"hams/internal/cpu"
	"hams/internal/mem"
)

const (
	lineBytes = 64
	// scratchBytes is the per-thread user buffer scratch accesses cycle
	// through; a power of two, so the cursor wraps with a mask.
	scratchBytes = 16 * mem.KiB
)

// mixer emits the scratch accesses and compute padding that make each
// iteration match the workload's Table III load/store ratios. Scratch
// accesses cycle through a small per-thread buffer that stays resident
// in the CPU caches, exactly like user-space buffers do.
//
// Every step a stream hands out is built in buf, which the stream owns
// and reuses (the cpu.Stream contract): once buf has grown to the
// longest step, Next allocates nothing.
type mixer struct {
	scratchBase uint64
	cursor      uint64
	buf         []mem.Access
}

func newMixer(base uint64) *mixer {
	return &mixer{scratchBase: base}
}

// begin returns the step buffer emptied; the stream appends the
// step's mapped accesses to it and passes the result to emit.
func (m *mixer) begin() []mem.Access { return m.buf[:0] }

func (m *mixer) scratchAccess(op mem.Op) mem.Access {
	a := mem.Access{Addr: m.scratchBase + m.cursor, Size: lineBytes, Op: op}
	m.cursor = (m.cursor + lineBytes) % scratchBytes
	return a
}

// emit builds a step whose totals approximate the ratios: mapped
// accesses are given (in the buffer begin returned); scratch
// loads/stores and compute are derived and appended after them.
func (m *mixer) emit(s Spec, mapped []mem.Access, totalInstr int64) cpu.Step {
	var mappedLoads, mappedStores int64
	for _, a := range mapped {
		lines := int64(mem.AlignUp(a.Addr+uint64(a.Size), lineBytes)-mem.AlignDown(a.Addr, lineBytes)) / lineBytes
		if a.Op == mem.Read {
			mappedLoads += lines
		} else {
			mappedStores += lines
		}
	}
	wantLoads := int64(s.LoadRatio * float64(totalInstr))
	wantStores := int64(s.StoreRatio * float64(totalInstr))
	step := cpu.Step{Acc: mapped}
	for l := mappedLoads; l < wantLoads; l++ {
		step.Acc = append(step.Acc, m.scratchAccess(mem.Read))
	}
	for st := mappedStores; st < wantStores; st++ {
		step.Acc = append(step.Acc, m.scratchAccess(mem.Write))
	}
	m.buf = step.Acc
	memInstr := wantLoads + wantStores
	if mappedLoads > wantLoads {
		memInstr += mappedLoads - wantLoads
	}
	if mappedStores > wantStores {
		memInstr += mappedStores - wantStores
	}
	step.Compute = totalInstr - memInstr
	if step.Compute < 0 {
		step.Compute = 0
	}
	return step
}

// instrOf returns the instruction cost of a step as the runner counts
// it (compute + one instruction per line touched).
func instrOf(step cpu.Step) int64 {
	n := step.Compute
	for _, a := range step.Acc {
		lines := int64(mem.AlignUp(a.Addr+uint64(a.Size), lineBytes)-mem.AlignDown(a.Addr, lineBytes)) / lineBytes
		if lines < 1 {
			lines = 1
		}
		n += lines
	}
	return n
}

// ---------------------------------------------------------------------
// mmap microbenchmark: page-granular sequential/random read/write.

type microStream struct {
	spec   Spec
	opts   Options
	rng    *rand.Rand
	sp     span
	mix    *mixer
	budget int64
	seqPos uint64
	iters  int64

	// Random mode touches bursts of pages inside a cluster — the
	// spatial locality real mmap workloads exhibit (and the reason
	// the paper's 128 KB MoS page wins, Fig. 20a).
	clusterAddr uint64
	clusterLeft int
}

func newMicroStream(s Spec, o Options, rng *rand.Rand, sp span, budget int64) *microStream {
	return &microStream{spec: s, opts: o, rng: rng, sp: sp, mix: newMixer(sp.base), budget: budget}
}

func (m *microStream) Next() (cpu.Step, bool) {
	if m.budget <= 0 {
		return cpu.Step{}, false
	}
	page := m.opts.PageBytes
	const clusterBytes = 256 * mem.KiB
	var addr uint64
	if m.spec.Sequential {
		addr = m.sp.base + m.seqPos
		m.seqPos = (m.seqPos + page) % (m.sp.size - page)
	} else {
		if m.clusterLeft <= 0 {
			m.clusterAddr = mem.AlignDown(m.sp.pick(m.rng, m.opts.HotFraction, m.opts.HotBytes, page), clusterBytes)
			m.clusterLeft = 8 + m.rng.Intn(48)
		}
		m.clusterLeft--
		addr = m.clusterAddr + uint64(m.rng.Intn(int(clusterBytes/page)))*page
		if addr+page > m.sp.base+m.sp.size {
			addr = m.sp.base
		}
	}
	op := mem.Read
	if m.spec.WriteHeavy {
		op = mem.Write
	}
	mapped := append(m.mix.begin(), mem.Access{Addr: addr, Size: uint32(page), Op: op})
	// One page copy touches page/64 lines on the mapped side; the
	// iteration's total instruction count is set so that the mapped
	// operation accounts for exactly its own Table III ratio (the
	// other side of the copy hits the user buffer, i.e. scratch).
	mappedLines := int64(page / lineBytes)
	ratio := m.spec.LoadRatio
	if op == mem.Write {
		ratio = m.spec.StoreRatio
	}
	total := int64(float64(mappedLines) / ratio)
	step := m.mix.emit(m.spec, mapped, total)
	m.budget -= instrOf(step)
	m.iters++
	return step, true
}

// PagesTouched reports iterations (pages) for pages/s metrics.
func (m *microStream) PagesTouched() int64 { return m.iters }

// ---------------------------------------------------------------------
// SQLite stand-in: B-tree-shaped key-value operations with 8-100 B
// accesses. The tree has a cached root, one inner level and a leaf
// level spread across the dataset.

type kvStream struct {
	spec   Spec
	opts   Options
	rng    *rand.Rand
	mix    *mixer
	ds     uint64
	budget int64
	seqKey uint64
	ops    int64

	// Cold accesses run through short sequential key ranges (range
	// scans / batched updates), giving the clustered index the
	// spatial locality real DBMS traffic has.
	coldKey  uint64
	coldLeft int
}

func newKVStream(s Spec, o Options, rng *rand.Rand, ds uint64, budget int64) *kvStream {
	return &kvStream{spec: s, opts: o, rng: rng, mix: newMixer(0), ds: ds, budget: budget}
}

// perOpInstr is the modeled instruction cost of one SQL operation;
// selects are DBMS-compute heavy (§III-B: rndSel/seqSel spend 83% of
// execution on DBMS computation).
func (k *kvStream) perOpInstr() int64 {
	switch k.spec.Name {
	case "seqSel", "rndSel":
		return 400
	case "update":
		return 250
	default: // inserts
		return 220
	}
}

func (k *kvStream) leafAddr(key uint64) uint64 {
	// Clustered index: sequential keys occupy adjacent 256 B leaf
	// entries (a B-tree keeps key order on disk), past the first
	// 64 MiB of inner nodes.
	innerBytes := uint64(64 * mem.MiB)
	leafSpace := k.ds - innerBytes
	return innerBytes + (key*256)%(leafSpace-4096)
}

func (k *kvStream) innerAddr(key uint64) uint64 {
	return ((key / 128) * 64) % (64 * mem.MiB)
}

func (k *kvStream) nextKey() uint64 {
	if k.spec.Sequential {
		k.seqKey++
		return k.seqKey
	}
	// Hot/cold skew: most touches land in a popular key range; cold
	// touches walk short sequential runs.
	if k.rng.Float64() < k.opts.HotFraction {
		return uint64(k.rng.Int63n(1 << 22))
	}
	if k.coldLeft <= 0 {
		k.coldKey = uint64(k.rng.Int63n(1 << 36))
		k.coldLeft = 12 + k.rng.Intn(24)
	}
	k.coldLeft--
	k.coldKey++
	return k.coldKey
}

func (k *kvStream) Next() (cpu.Step, bool) {
	if k.budget <= 0 {
		return cpu.Step{}, false
	}
	key := k.nextKey()
	// Root is cached (scratch); inner node read: 64 B.
	mapped := append(k.mix.begin(), mem.Access{Addr: k.innerAddr(key), Size: 64, Op: mem.Read})
	leaf := k.leafAddr(key)
	switch k.spec.Name {
	case "seqSel", "rndSel":
		mapped = append(mapped, mem.Access{Addr: leaf, Size: 100, Op: mem.Read})
	case "update":
		mapped = append(mapped,
			mem.Access{Addr: leaf, Size: 100, Op: mem.Read},
			mem.Access{Addr: leaf, Size: 64, Op: mem.Write})
	default: // inserts: read leaf, write entry, occasionally split
		mapped = append(mapped,
			mem.Access{Addr: leaf, Size: 64, Op: mem.Read},
			mem.Access{Addr: leaf, Size: 100, Op: mem.Write})
		if k.ops%64 == 63 { // node split: write a fresh page
			mapped = append(mapped, mem.Access{Addr: k.leafAddr(key + 1<<40), Size: 4096, Op: mem.Write})
		}
	}
	step := k.mix.emit(k.spec, mapped, k.perOpInstr())
	k.budget -= instrOf(step)
	k.ops++
	return step, true
}

// Ops reports completed SQL operations for ops/s metrics.
func (k *kvStream) Ops() int64 { return k.ops }

// ---------------------------------------------------------------------
// Rodinia kernels.

type rodiniaStream struct {
	spec   Spec
	opts   Options
	rng    *rand.Rand
	sp     span
	mix    *mixer
	budget int64
	pos    uint64
	iters  int64
}

func newRodiniaStream(s Spec, o Options, rng *rand.Rand, sp span, budget int64) *rodiniaStream {
	return &rodiniaStream{spec: s, opts: o, rng: rng, sp: sp, mix: newMixer(sp.base), budget: budget}
}

func (r *rodiniaStream) Next() (cpu.Step, bool) {
	if r.budget <= 0 {
		return cpu.Step{}, false
	}
	mapped := r.mix.begin()
	var total int64
	switch r.spec.Name {
	case "BFS":
		// Visit a vertex: offsets read, a burst of neighbor IDs near
		// the frontier (CSR adjacency is contiguous), and a rare
		// visited-bit write. Every 64 visits the frontier jumps.
		if r.iters%64 == 0 || r.pos == 0 {
			r.pos = r.sp.pick(r.rng, r.opts.HotFraction, r.opts.HotBytes, 4096) - r.sp.base
		}
		off := r.sp.base + (r.pos+uint64(r.rng.Intn(32*1024)))%(r.sp.size-512)
		mapped = append(mapped, mem.Access{Addr: off, Size: 8, Op: mem.Read})
		mapped = append(mapped, mem.Access{Addr: off + 64, Size: 256, Op: mem.Read})
		if r.iters%8 == 0 {
			mapped = append(mapped, mem.Access{Addr: off + 8, Size: 8, Op: mem.Write})
		}
		total = 30
	case "KMN":
		// Stream a point vector; centroids live in scratch.
		mapped = append(mapped, mem.Access{Addr: r.sp.base + r.pos, Size: 128, Op: mem.Read})
		r.pos = (r.pos + 128) % (r.sp.size - 128)
		total = 24
	default: // NN: streaming scan, distance computation dominates
		mapped = append(mapped, mem.Access{Addr: r.sp.base + r.pos, Size: 64, Op: mem.Read})
		r.pos = (r.pos + 64) % (r.sp.size - 64)
		total = 20
	}
	step := r.mix.emit(r.spec, mapped, total)
	r.budget -= instrOf(step)
	r.iters++
	return step, true
}

// Iters reports kernel iterations (pages/s proxy for Fig. 16a uses
// 4 KiB-normalized progress).
func (r *rodiniaStream) Iters() int64 { return r.iters }

// Progress lets the harness read workload progress (pages or ops).
type Progress interface {
	// Units returns completed work items (pages for micro/Rodinia,
	// SQL operations for the KV workloads).
	Units() int64
}

func (m *microStream) Units() int64   { return m.iters }
func (k *kvStream) Units() int64      { return k.ops }
func (r *rodiniaStream) Units() int64 { return r.iters }
