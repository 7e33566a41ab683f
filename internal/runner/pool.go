package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Pool is a long-lived worker pool shared by many concurrent cell
// batches — the daemon-side counterpart of Engine, which spins up a
// short-lived Pool per Run call. hamsd submits every job's cells
// through one Pool so N simultaneous clients multiplex onto a fixed
// number of simulator workers instead of oversubscribing the host
// N-fold.
//
// The determinism contract is inherited from the package: a cell's
// output is a pure function of its inputs, so sharing workers across
// batches cannot change any batch's results — only their wall times.
// Each RunCells call has the batch semantics Engine documents
// (duplicate-key rejection, canonical-order results, first error
// cancels the batch's remaining undispatched cells, a cancelled ctx
// stops dispatch);
// batches are isolated: one batch's error or cancellation never
// affects another's cells.
type Pool struct {
	workers int
	items   chan func()

	mu     sync.Mutex
	closed bool
	subs   sync.WaitGroup // active RunCells calls
	wg     sync.WaitGroup // worker goroutines

	busy atomic.Int64 // cells executing right now
	done atomic.Int64 // cells completed over the pool's lifetime
}

// NewPool starts a pool with the given number of workers (<= 0 means
// GOMAXPROCS). Callers own the pool's lifecycle and must Close it.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers, items: make(chan func())}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for run := range p.items {
				p.busy.Add(1)
				run()
				p.busy.Add(-1)
			}
		}()
	}
	return p
}

// Workers reports the pool size.
func (p *Pool) Workers() int { return p.workers }

// Busy reports how many cells are executing right now (worker
// utilization for /v1/stats and /metrics).
func (p *Pool) Busy() int { return int(p.busy.Load()) }

// Completed reports how many cells the pool has finished in total.
func (p *Pool) Completed() int64 { return p.done.Load() }

// RunCells implements CellRunner on the shared pool: it dispatches the
// batch to the pool's workers, blocks until every dispatched cell has
// drained, and returns results in canonical order. Concurrent RunCells
// calls interleave their cells on the same workers. onResult fires per
// cell on completion (see CellRunner). Calling RunCells on a closed
// pool is an error.
func (p *Pool) RunCells(ctx context.Context, cells []Cell, onResult func(Result)) ([]Result, error) {
	return p.runCells(ctx, cells, nil, onResult)
}

// runCells is RunCells dispatching cells in the given order of
// indices into cells (nil = input order); results stay in input
// order.
func (p *Pool) runCells(ctx context.Context, cells []Cell, order []int, onResult func(Result)) ([]Result, error) {
	if len(cells) == 0 {
		return nil, nil
	}
	seen := make(map[string]struct{}, len(cells))
	for _, c := range cells {
		if _, dup := seen[c.Key]; dup {
			return nil, fmt.Errorf("runner: duplicate cell key %q", c.Key)
		}
		seen[c.Key] = struct{}{}
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("runner: pool is closed")
	}
	p.subs.Add(1)
	p.mu.Unlock()
	defer p.subs.Done()

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]Result, len(cells))
	var pending sync.WaitGroup
	var once sync.Once
	var firstErr error
dispatch:
	for k := range cells {
		// Poll ctx before offering the cell: select picks randomly
		// among ready cases, so a cancelled context could keep losing
		// the coin flip against an idle worker and leak extra
		// dispatches.
		select {
		case <-ctx.Done():
			break dispatch
		default:
		}
		i := k
		if order != nil {
			i = order[k]
		}
		pending.Add(1)
		run := func() {
			defer pending.Done()
			// Counted before pending.Done (defers run last-in first-out),
			// so Completed includes every cell of a batch that returned.
			defer p.done.Add(1)
			c := cells[i]
			start := time.Now()
			v, err := c.Fn(ctx)
			results[i] = Result{Key: c.Key, Value: v, Wall: time.Since(start), Err: err}
			if err != nil {
				once.Do(func() { firstErr = err; cancel() })
			}
			if onResult != nil {
				onResult(results[i])
			}
		}
		select {
		case p.items <- run:
		case <-ctx.Done():
			pending.Done()
			break dispatch
		}
	}
	pending.Wait()
	if firstErr != nil {
		return results, firstErr
	}
	if err := ctx.Err(); err != nil {
		return results, err
	}
	return results, nil
}

// Close drains the pool: it refuses new RunCells calls, waits for
// in-flight batches to finish, then stops the workers. Idempotent.
// The caller is responsible for cancelling or completing outstanding
// batches first if it wants Close to return promptly.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.subs.Wait()
	close(p.items)
	p.wg.Wait()
}
