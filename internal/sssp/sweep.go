package sssp

import (
	"context"
	"runtime/pprof"
	"sync"

	"repro/internal/graph"
)

// Sweep runs fn(src, dist) for every source in sources, spreading the
// traversals across workers goroutines (<=0 means GOMAXPROCS). Each worker
// owns its distance rows, so fn must finish with dist before returning and
// must not retain it. fn may be called concurrently from different workers;
// for a fixed worker the calls are sequential, and with one worker they
// follow the order of sources.
//
// This is the exact-ground-truth workhorse: the topk package streams every
// source's distance vector through a Δ-accumulating callback instead of
// materializing an O(n²) distance matrix. Under the Auto engine, large
// source sets run 64 sources per pass through the bit-parallel kernel.
//
// workers spreads sources (or 64-source batches) across goroutines; it is
// the sweep's only source of parallelism for the bit-parallel kernel. par
// (<= 1 = serial) splits each scalar TopDown/DirectionOpt traversal's
// frontiers across the traversal worker pool, so for scalar engines total
// concurrency is workers × par. Callers dividing a core budget give the
// across-source axis priority: it parallelizes perfectly.
//
// Once ctx is done no further source (or batch) starts traversing and Sweep
// returns ctx's error; traversals already in flight finish, so fn is never
// interrupted mid-row. Cancellation changes which sources got swept, never
// the rows delivered for the ones that did, and leaves all scratch reusable.
func Sweep(ctx context.Context, g *graph.Graph, sources []int, workers int, e Engine, par int, fn func(src int, dist []int32)) error {
	return forEachBatch(ctx, g, nil, sources, workers, e, par, func(batch []int, rows, _ [][]int32) {
		for i, src := range batch {
			fn(src, rows[i])
		}
	})
}

// PairedSweep runs BFS from each source on both snapshots and hands the two
// distance vectors to fn together. Parallelism, buffer ownership and
// cancellation follow Sweep.
func PairedSweep(ctx context.Context, g1, g2 *graph.Graph, sources []int, workers int, e Engine, par int, fn func(src int, d1, d2 []int32)) error {
	return forEachBatch(ctx, g1, g2, sources, workers, e, par, func(batch []int, rows1, rows2 [][]int32) {
		for i, src := range batch {
			fn(src, rows1[i], rows2[i])
		}
	})
}

// forEachBatch is the one multi-source driver behind Sweep and PairedSweep.
// It resolves the engine for the whole sweep, splits sources into
// Lanes()-sized batches (one-source batches for the scalar engines),
// traverses each batch on g1 (and on g2 when it is non-nil), and hands the
// batch and its rows to emit: rows1[i] and rows2[i] hold the distances from
// batch[i]. Batches spread across workers goroutines, each owning one
// Scratch per graph that also holds its row block, so a sweep's allocations
// are per worker, not per source. Once ctx is done, remaining batches are
// skipped (batches already running finish whole).
func forEachBatch(ctx context.Context, g1, g2 *graph.Graph, sources []int, workers int, e Engine, par int, emit func(batch []int, rows1, rows2 [][]int32)) error {
	eng := resolveBatch(e, len(sources))
	k := resolvePar(par)
	lanes := max(eng.Lanes(), 1)
	numBatches := (len(sources) + lanes - 1) / lanes
	workers = ClampWorkers(workers, numBatches)
	scratches := make([]Scratch, 2*workers)
	run := func(w, b int) {
		batch := sources[b*lanes : min((b+1)*lanes, len(sources))]
		s1, s2 := &scratches[2*w], &scratches[2*w+1]
		rows1 := s1.ensureRows(g1.NumNodes(), lanes)[:len(batch)]
		batchBFS(g1, batch, rows1, eng, k, s1)
		var rows2 [][]int32
		if g2 != nil {
			rows2 = s2.ensureRows(g2.NumNodes(), lanes)[:len(batch)]
			batchBFS(g2, batch, rows2, eng, k, s2)
		}
		emit(batch, rows1, rows2)
	}
	if workers == 1 {
		for b := 0; b < numBatches && ctx.Err() == nil; b++ {
			run(0, b)
		}
		return ctx.Err()
	}
	// Workers carry pprof labels, so CPU and goroutine profiles attribute
	// sweep work to the sssp subsystem and the kernel actually serving it.
	labels := pprof.Labels("subsystem", "sssp-sweep", "kernel", eng.String())
	var wg sync.WaitGroup
	next := make(chan int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pprof.Do(context.Background(), labels, func(context.Context) {
				for b := range next {
					if ctx.Err() == nil { // once done, drain without traversing
						run(w, b)
					}
				}
			})
		}(w)
	}
	for b := 0; b < numBatches; b++ {
		next <- b
	}
	close(next)
	wg.Wait()
	return ctx.Err()
}

// batchBFS fills rows[i] with the distances from batch[i] on g under the
// resolved engine eng: one serial MS-BFS pass for the bit-parallel engine,
// one scalar traversal of the single source (split par ways) otherwise.
//
//convlint:hotpath
func batchBFS(g *graph.Graph, batch []int, rows [][]int32, eng Engine, par int, s *Scratch) {
	if eng.Lanes() == 0 {
		BFSWith(g, batch[0], rows[0], eng, par, s)
		return
	}
	msBFSBatch(g, batch, rows, s)
}
