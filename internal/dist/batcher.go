package dist

import (
	"context"
	"sync"
	"time"

	"repro/internal/obs"
)

// Batching observability: how many unique sources each flushed sweep carried
// (the cross-request amortization win — BENCH_sssp.json shows 3.3x per-source
// at batch 64), and how many single-source requests were answered from a
// sweep they shared with at least one other request.
var (
	sourcesPerSweep   = obs.NewHistogram("dist.sources_per_sweep")
	coalescedRequests = obs.NewCounter("dist.coalesced_requests")
)

// DefaultBatchWindow is how long a Batcher holds the first request of a batch
// before sweeping, waiting for concurrent requests to coalesce. Two
// milliseconds is far below typical sweep cost on serve-sized graphs and far
// above goroutine scheduling jitter, so concurrent queries reliably share
// lanes without a human-visible latency tax.
const DefaultBatchWindow = 2 * time.Millisecond

// BatcherOptions tunes a Batcher. The zero value gives the serve defaults.
type BatcherOptions struct {
	// Window is how long the first request of a batch waits for company
	// before the sweep runs (default DefaultBatchWindow). <= 0 keeps the
	// default; use Immediate to disable the wait entirely.
	Window time.Duration
	// Immediate disables the coalescing wait: every enqueue flushes at once.
	// Correctness-neutral (results are identical either way); it exists for
	// tests and for callers that know requests never overlap.
	Immediate bool
	// MaxBatch caps unique sources per sweep (default 64, one BitParallel64
	// lane block). A batch that fills flushes immediately, without waiting
	// for the window.
	MaxBatch int
	// Workers is the worker count handed to the underlying sweep driver
	// (0 = process default).
	Workers int
}

// Batcher wraps a Source with cross-request sweep coalescing: single-source
// distance requests arriving within a short window are merged into one
// multi-source sweep on the underlying source (shared 64-lane bit-parallel
// passes when it is BFS-backed), and each caller gets its own copy of its
// row. Rows are bit-identical to unbatched calls — batching changes machine
// work, never results — and each request still costs its caller one budget
// unit (callers charge their own meters; sharing a sweep never shares a
// charge).
//
// Batcher itself implements Source and is safe for concurrent use; its
// DistancesInto blocks until the batched sweep delivers the row.
type Batcher struct {
	src     Source
	window  time.Duration
	max     int
	workers int

	mu      sync.Mutex // guards pending
	pending *swBatch
}

// swBatch is one in-flight coalescing window: the unique sources collected so
// far and the requests waiting on each.
type swBatch struct {
	mu    sync.Mutex // guards per-request delivered/canceled, and row copies
	order []int      // unique sources, arrival order
	reqs  map[int][]*batchReq
	timer *time.Timer
}

// batchReq is one caller waiting for one source's row. delivered and canceled
// are guarded by the owning batch's mu: a canceled request's dst is never
// written, a delivered request's dst is never written again, so a waiter that
// observed either under the lock can safely reuse dst.
type batchReq struct {
	dst       []int32
	done      chan struct{}
	delivered bool
	canceled  bool
}

// NewBatcher wraps src with cross-request batching.
func NewBatcher(src Source, opts BatcherOptions) *Batcher {
	if opts.Window <= 0 {
		opts.Window = DefaultBatchWindow
	}
	if opts.Immediate {
		opts.Window = 0
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 64
	}
	return &Batcher{src: src, window: opts.Window, max: opts.MaxBatch, workers: opts.Workers}
}

// Unwrap returns the underlying source, so structural consumers
// (UnweightedGraph, selectors) see through the batching layer.
func (b *Batcher) Unwrap() Source { return b.src }

// NumNodes returns the node-universe size.
func (b *Batcher) NumNodes() int { return b.src.NumNodes() }

// NumEdges returns the undirected edge count.
func (b *Batcher) NumEdges() int { return b.src.NumEdges() }

// Degree returns the neighbor count of u.
func (b *Batcher) Degree(u int) int { return b.src.Degree(u) }

// NeighborIDs returns u's adjacency; aliases internal storage.
func (b *Batcher) NeighborIDs(u int) []int32 { return b.src.NeighborIDs(u) }

// DistancesInto fills dst with the distances from src, waiting for the
// batched sweep that carries it. Costs one budget unit, exactly like the
// unbatched call.
func (b *Batcher) DistancesInto(src int, dst []int32) {
	_ = b.DistancesIntoCtx(context.Background(), src, dst)
}

// DistancesIntoCtx is DistancesInto under a context: if ctx is done before
// the row arrives the request is withdrawn (its lane may still be swept if
// the batch already launched, but dst is never written after return) and
// ctx's error is returned.
func (b *Batcher) DistancesIntoCtx(ctx context.Context, src int, dst []int32) error {
	req, bt, flush := b.enqueue(src, dst)
	if flush != nil {
		flush()
	}
	return b.wait(ctx, bt, req)
}

// enqueue registers a request for src's row. It returns the request, its
// batch, and — when this request filled the batch or the batcher runs in
// immediate mode — the flush thunk the caller must run (outside b.mu, on its
// own goroutine's time; the caller's request completes during that sweep).
func (b *Batcher) enqueue(src int, dst []int32) (*batchReq, *swBatch, func()) {
	req := &batchReq{dst: dst, done: make(chan struct{})}
	b.mu.Lock()
	bt := b.pending
	if bt == nil {
		bt = &swBatch{reqs: make(map[int][]*batchReq)}
		b.pending = bt
		if b.window > 0 {
			cur := bt
			bt.timer = time.AfterFunc(b.window, func() { b.flushIfPending(cur) })
		}
	}
	if _, seen := bt.reqs[src]; !seen {
		bt.order = append(bt.order, src)
	}
	bt.reqs[src] = append(bt.reqs[src], req)
	full := len(bt.order) >= b.max || b.window <= 0
	if full {
		b.pending = nil
	}
	b.mu.Unlock()
	if full {
		if bt.timer != nil {
			bt.timer.Stop()
		}
		return req, bt, func() { b.flush(bt) }
	}
	return req, bt, nil
}

// flushIfPending detaches bt and sweeps it, unless a filling enqueue already
// took it (timer-vs-full race: whoever detaches under b.mu owns the flush).
func (b *Batcher) flushIfPending(bt *swBatch) {
	b.mu.Lock()
	//convlint:nondet ownership arbitration, not a result path: identity of the detached batch decides which goroutine sweeps it; rows are identical either way
	if b.pending != bt {
		b.mu.Unlock()
		return
	}
	b.pending = nil
	b.mu.Unlock()
	b.flush(bt)
}

// flush sweeps a detached batch's unique sources in one pass over the
// underlying source and fans each row out to its waiters. The sweep runs
// under context.Background(): it serves every waiter in the batch, so no
// single request's cancellation may abort it (a fully-abandoned batch still
// sweeps once; the window bounds the waste).
func (b *Batcher) flush(bt *swBatch) {
	sourcesPerSweep.Observe(int64(len(bt.order)))
	// A request "coalesced" if it shared its sweep with any other request —
	// including duplicate-source requests, which share a single lane.
	total := 0
	for _, src := range bt.order {
		total += len(bt.reqs[src])
	}
	multi := total > 1
	_ = Sweep(context.Background(), b.src, bt.order, b.workers, func(src int, dist []int32) {
		bt.mu.Lock()
		for _, req := range bt.reqs[src] {
			if !req.canceled {
				copy(req.dst, dist)
				req.delivered = true
			}
			close(req.done)
		}
		bt.mu.Unlock()
		if multi {
			coalescedRequests.Add(int64(len(bt.reqs[src])))
		}
	})
}

// wait blocks until req's row is delivered or ctx is done, whichever first.
func (b *Batcher) wait(ctx context.Context, bt *swBatch, req *batchReq) error {
	select {
	case <-req.done:
		return nil
	case <-ctx.Done():
		bt.mu.Lock()
		delivered := req.delivered
		if !delivered {
			req.canceled = true
		}
		bt.mu.Unlock()
		if delivered {
			// The row landed while we raced ctx; it is complete and valid.
			return nil
		}
		return ctx.Err()
	}
}

// Sweep implements the sweeper capability: all sources enqueue into the
// current window at once (coalescing with any concurrent requests), then fn
// is invoked sequentially as rows are awaited. A multi-source query through a
// Batcher therefore batches with itself even when no other request overlaps.
func (b *Batcher) Sweep(ctx context.Context, sources []int, workers int, fn func(src int, dst []int32)) error {
	n := b.src.NumNodes()
	type pending struct {
		req *batchReq
		bt  *swBatch
	}
	reqs := make([]pending, len(sources))
	for i, src := range sources {
		req, bt, flush := b.enqueue(src, make([]int32, n))
		reqs[i] = pending{req, bt}
		if flush != nil {
			flush()
		}
	}
	var err error
	for i, p := range reqs {
		if err != nil {
			// Withdraw the rest so no abandoned dst is ever written.
			p.bt.mu.Lock()
			if !p.req.delivered {
				p.req.canceled = true
			}
			p.bt.mu.Unlock()
			continue
		}
		if werr := b.wait(ctx, p.bt, p.req); werr != nil {
			err = werr
			continue
		}
		fn(sources[i], p.req.dst)
	}
	return err
}
