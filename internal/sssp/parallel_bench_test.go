package sssp

import (
	"context"
	"fmt"
	"testing"
)

// BenchmarkParallelBFS measures a single scalar traversal at increasing
// intra-traversal parallelism. Each op is one full BFS from a rotating
// source on a 50k-node graph; par=1 is the serial kernel, par>1 splits
// every frontier level across the worker pool. On a multicore host the
// speedup column of BENCH_parallel.json comes from this benchmark run at
// GOMAXPROCS >= par.
func BenchmarkParallelBFS(b *testing.B) {
	const n = 50000
	g := benchGraph(n, 1)
	dist := make([]int32, n)
	s := NewScratch(n)
	for _, e := range []Engine{TopDown, DirectionOpt} {
		for _, par := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/par=%d/n=%d", e, par, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					BFSWith(g, i%n, dist, e, par, s)
				}
			})
		}
	}
}

// BenchmarkWideSweep measures the multi-source sweep across lane widths:
// each op traverses the same 1024 sources, so bitparallel64 runs 16 batch
// traversals, bitparallel256 runs 4, and bitparallel512 runs 2. The
// per-traversal cost grows with W (more visit words per node) but the
// traversal count shrinks by W, so wider kernels amortize the frontier
// scan — measurable even on one core. par>1 additionally splits each
// batch traversal's node scan across the worker pool.
func BenchmarkWideSweep(b *testing.B) {
	const n, srcCount = 50000, 1024
	g := benchGraph(n, 7)
	sources := make([]int, srcCount)
	for i := range sources {
		sources[i] = (i * (n / srcCount)) % n
	}
	for _, e := range []Engine{BitParallel64, BitParallel256, BitParallel512} {
		for _, par := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/par=%d/n=%d/sources=%d", e, par, n, srcCount), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					Sweep(context.Background(), g, sources, 1, e, par, func(int, []int32) {})
				}
			})
		}
	}
}

// BenchmarkWideKernel isolates the lane-amortization question from driver
// allocation: with a warmed scratch, one op covers the same 256 sources
// either as four sequential 64-lane batches (the old kernel) or as one
// 256-lane traversal (the wide kernel). Per edge the wide kernel touches
// one node's 4 adjacent visit words (a single cache line) where the four
// sequential batches take four separate random accesses — so the wide
// kernel pulls ahead once the visit arrays outgrow the cache (large n)
// and is overhead-bound when they fit (small n).
func BenchmarkWideKernel(b *testing.B) {
	for _, n := range []int{50000, 400000} {
		g := benchGraph(n, 7)
		sources := make([]int, 256)
		for i := range sources {
			sources[i] = (i * (n / 256)) % n
		}
		rows := make([][]int32, 256)
		for i := range rows {
			rows[i] = make([]int32, n)
		}
		s := NewScratch(n)
		b.Run(fmt.Sprintf("4x-msbfs64/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			msBFSBatch(g, sources[:64], rows[:64], s) // warm
			for i := 0; i < b.N; i++ {
				for batch := 0; batch < 4; batch++ {
					msBFSBatch(g, sources[batch*64:(batch+1)*64], rows[batch*64:(batch+1)*64], s)
				}
			}
		})
		for _, par := range []int{1, 4} {
			b.Run(fmt.Sprintf("1x-msbfs256/par=%d/n=%d", par, n), func(b *testing.B) {
				b.ReportAllocs()
				msBFSBatchWide(g, sources, rows, 4, par, s) // warm
				for i := 0; i < b.N; i++ {
					msBFSBatchWide(g, sources, rows, 4, par, s)
				}
			})
		}
	}
}

// BenchmarkParallelPairedSweep measures the ground-truth sweep's hot path
// (paired per-source rows on a 50k snapshot pair) with the two parallelism
// knobs composed: workers fans traversals across sources, par splits each
// traversal. The workers=1/par=1 row is the BENCH_sssp.json baseline.
func BenchmarkParallelPairedSweep(b *testing.B) {
	const n, srcCount = 50000, 1024
	g1 := benchGraph(n, 7)
	g2 := benchGraph(n, 8)
	sources := make([]int, srcCount)
	for i := range sources {
		sources[i] = (i * (n / srcCount)) % n
	}
	cfgs := []struct{ workers, par int }{{1, 1}, {1, 4}, {2, 2}, {4, 1}}
	for _, e := range []Engine{DirectionOpt, BitParallel256} {
		for _, c := range cfgs {
			b.Run(fmt.Sprintf("%s/workers=%d/par=%d", e, c.workers, c.par), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					PairedSweep(context.Background(), g1, g2, sources, c.workers, e, c.par, func(int, []int32, []int32) {})
				}
			})
		}
	}
}
