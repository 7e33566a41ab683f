package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"time"

	"hams"
	"hams/internal/runner"
	"hams/internal/stats"
)

// mosDirect drives the MoS library API with no cpu model, workload
// generator or replay engine in front: hams.New(Extend, Tight) over a
// 64 MiB NVDIMM with 16 MiB pinned. A rep's set-up builds a fresh
// instance and prefills a 96 MiB footprint with full-page writes, so
// every rep starts from the same state; its cells are 50 k line-sized
// operations, one third writes, 80% inside a 16 MiB hot set and 20%
// uniform over the footprint. A power failure and recovery end it.
type mosDirect struct {
	seed      uint64
	footprint uint64
	ops       []mosOp
	final     []mosOp  // lines a rep writes, at their last version
	sample    []uint32 // prefilled lines a rep never writes
}

// mosOp is one operation on a 64 B line; ver is the version a write
// stores or the version a read must return.
type mosOp struct {
	line, ver uint32
	write     bool
}

const (
	lineBytes = 64
	// mosCell is the number of operations timed as one cell.
	mosCell = 10_000
)

func newMosDirect(seed int64, tiny bool) load {
	var footprint, hot uint64 = 96 * hams.MiB, 16 * hams.MiB
	n := 50_000
	if tiny {
		footprint, hot, n = 64*hams.MiB, 4*hams.MiB, 4_000
	}
	w := &mosDirect{seed: uint64(seed) * 0x9e3779b97f4a7c15, footprint: footprint}
	rng := rand.New(rand.NewSource(runner.DeriveSeed(seed, "mos-direct")))
	lines, hotLines := int64(footprint/lineBytes), int64(hot/lineBytes)
	ver := map[uint32]uint32{}
	for range n {
		op := mosOp{line: uint32(rng.Int63n(lines))}
		if rng.Float64() < 0.80 {
			op.line = uint32(rng.Int63n(hotLines))
		}
		if rng.Intn(3) == 0 {
			ver[op.line]++
			op.write = true
		}
		op.ver = ver[op.line]
		w.ops = append(w.ops, op)
	}
	for line, v := range ver {
		w.final = append(w.final, mosOp{line: line, ver: v})
	}
	slices.SortFunc(w.final, func(a, b mosOp) int { return int(a.line) - int(b.line) })
	for len(w.sample) < 1024 {
		line := uint32(rng.Int63n(lines))
		if _, written := ver[line]; !written {
			w.sample = append(w.sample, line)
		}
	}
	return w
}

// fillLine writes the content of a line at a version: every 8-byte
// word distinct per (seed, line, version, word), so a stale, torn or
// misplaced line cannot match.
func (w *mosDirect) fillLine(b []byte, line, ver uint32) {
	for i := range lineBytes / 8 {
		binary.LittleEndian.PutUint64(b[8*i:], w.seed^uint64(line)<<32^uint64(ver)<<3^uint64(i))
	}
}

// build makes a fresh instance and prefills the footprint.
func (w *mosDirect) build(tr *tracer) (*hams.MoS, error) {
	cfg := hams.DefaultConfig(hams.Extend, hams.Tight)
	cfg.NVDIMM.DRAM.Capacity = 64 * hams.MiB
	cfg.PinnedBytes = 16 * hams.MiB
	t0 := time.Now()
	m, err := hams.New(cfg)
	tr.span("platform.new", t0)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	page := make([]byte, m.PageBytes())
	for addr := uint64(0); addr < w.footprint; addr += m.PageBytes() {
		for off := 0; off < len(page); off += lineBytes {
			w.fillLine(page[off:], uint32((addr+uint64(off))/lineBytes), 0)
		}
		if _, err := m.Write(addr, page); err != nil {
			return nil, err
		}
	}
	tr.span("platform.warm", t0)
	return m, nil
}

// mosSim is a rep's simulated outcome.
type mosSim struct {
	Stats     hams.Stats
	Elapsed   hams.Time
	P99       hams.Time
	PowerFail hams.PowerFailReport
	Recover   hams.RecoverReport
}

func (w *mosDirect) rep(tr *tracer) (repOut, error) {
	var out repOut
	t0 := time.Now()
	m, err := w.build(tr)
	out.setup = time.Since(t0)
	if err != nil {
		return out, err
	}
	start := m.Now()
	lat := stats.NewHistogram()
	buf, want := make([]byte, lineBytes), make([]byte, lineBytes)
	for c := 0; c < len(w.ops); c += mosCell {
		t0 := time.Now()
		for _, op := range w.ops[c:min(c+mosCell, len(w.ops))] {
			if op.write {
				w.fillLine(buf, op.line, op.ver)
			}
			issue := m.Now()
			var t1 time.Time
			if tr != nil {
				t1 = time.Now()
			}
			var r hams.AccessResult
			var err error
			if op.write {
				r, err = m.Write(uint64(op.line)*lineBytes, buf)
			} else {
				r, err = m.Read(uint64(op.line)*lineBytes, buf)
			}
			if tr != nil {
				tr.access(time.Since(t1), r.Hit, true)
			}
			if err != nil {
				return out, err
			}
			lat.Add(r.Done - issue)
			if !op.write {
				w.fillLine(want, op.line, op.ver)
				// Only a failure formats its message: boxing the line
				// number on every read would allocate in the timed loop.
				if !bytes.Equal(buf, want) {
					out.check(false, "read of line %d returned stale or foreign data", op.line)
					continue
				}
			}
			out.attempted++
		}
		out.cells = append(out.cells, time.Since(t0))
	}
	elapsed := m.Now() - start

	t0 = time.Now()
	pf := m.PowerFail()
	rr, err := m.Recover()
	tr.span("core.recover", t0)
	if err != nil {
		return out, err
	}
	for _, op := range w.final {
		m.Peek(uint64(op.line)*lineBytes, buf)
		w.fillLine(want, op.line, op.ver)
		out.check(bytes.Equal(buf, want), "line %d lost its last write across power failure", op.line)
	}
	for _, line := range w.sample {
		m.Peek(uint64(line)*lineBytes, buf)
		w.fillLine(want, line, 0)
		out.check(bytes.Equal(buf, want), "prefilled line %d changed across power failure", line)
	}
	out.accesses = int64(len(w.ops))
	out.sim = mosSim{Stats: m.Stats(), Elapsed: elapsed, P99: lat.Percentile(99), PowerFail: pf, Recover: rr}
	out.simRate, out.simP99 = float64(len(w.ops))/elapsed.Seconds(), float64(lat.Percentile(99))
	if tr != nil {
		tr.sim.addCore(m.Stats())
	}
	return out, nil
}
