// Package runner is the concurrent experiment engine: it executes a
// set of independent experiment cells — one (platform, workload,
// config) point of a table or figure — across a worker pool and
// reassembles the results in canonical (input) order.
//
// Determinism is the package contract: a cell's output may depend only
// on its own inputs (including a seed derived from the cell's stable
// identity via DeriveSeed), never on which worker ran it, how many
// workers exist, or the order in which cells complete. Under that
// contract Run returns bit-identical results for Workers=1,
// Workers=GOMAXPROCS, and any dispatch permutation — pinned by tests
// in this package and in internal/experiments.
package runner

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"io"
	"math/rand"
	"runtime"
	"time"
)

// Cell is one independent unit of work. Key is the cell's stable
// identity: unique within a Run call, used for result labeling and
// (by callers) for seed derivation.
type Cell struct {
	Key string
	Fn  func(ctx context.Context) (any, error)
}

// Result pairs a cell's output with its identity and host-side cost.
type Result struct {
	Key   string
	Value any
	Wall  time.Duration // host wall time of the cell (not simulated time)
	Err   error
}

// CellRunner executes a batch of cells and returns their results in
// canonical (input) order. onResult, when non-nil, is invoked once per
// cell as it completes — from whichever goroutine ran the cell, in
// completion order, concurrently with other cells — the mid-run
// progress hook that hamsd streaming and `hamsbench -progress` build
// on. The hook observes results; it must not mutate them, and the
// determinism contract is unchanged: the returned slice is identical
// whether or not a hook is installed. Implemented by Engine (one pool
// per batch) and Pool (a long-lived shared pool for daemon use).
type CellRunner interface {
	RunCells(ctx context.Context, cells []Cell, onResult func(Result)) ([]Result, error)
}

// Engine executes cells across a worker pool.
type Engine struct {
	// Workers is the pool size; <= 0 means GOMAXPROCS.
	Workers int
	// ShuffleSeed, when nonzero, deterministically permutes the order
	// cells are dispatched to workers. Results still come back in
	// canonical order — the knob exists so tests can prove completion
	// order does not leak into results.
	ShuffleSeed int64
}

// Run executes every cell and returns results in input order. The
// first cell error cancels the context passed to still-pending cells
// and is returned after all in-flight cells drain; completed cells
// keep their results. A cancelled ctx stops dispatch and returns
// ctx.Err().
func (e Engine) Run(ctx context.Context, cells []Cell) ([]Result, error) {
	return e.RunCells(ctx, cells, nil)
}

// RunCells is Run with a per-cell completion hook (see CellRunner). It
// runs the batch on a Pool of its own, sized to the batch, that lives
// only for this call.
func (e Engine) RunCells(ctx context.Context, cells []Cell, onResult func(Result)) ([]Result, error) {
	if len(cells) == 0 {
		return nil, nil
	}
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var order []int
	if e.ShuffleSeed != 0 {
		order = rand.New(rand.NewSource(e.ShuffleSeed)).Perm(len(cells))
	}
	p := NewPool(min(workers, len(cells)))
	defer p.Close()
	return p.runCells(ctx, cells, order, onResult)
}

// DeriveSeed maps (base seed, stable cell identity) to a per-cell
// workload seed. The derivation depends only on its arguments, so a
// cell draws the same stream no matter which worker runs it or when;
// cells that must stay paired for a comparison (e.g. the same workload
// across platforms) pass the same key.
func DeriveSeed(base int64, key string) int64 {
	h := fnv.New64a()
	io.WriteString(h, key)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(base))
	h.Write(b[:])
	return int64(h.Sum64() & 0x7fffffffffffffff)
}
