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

// BenchmarkParallelPairedSweep measures the ground-truth sweep's hot path
// (paired per-source rows on a 50k snapshot pair) with the two parallelism
// knobs: workers fans traversals (or 64-source batches) across sources, par
// splits each scalar traversal and never reaches the bit-parallel kernel.
// The workers=1/par=1 rows are the BENCH_sssp.json baseline.
func BenchmarkParallelPairedSweep(b *testing.B) {
	const n, srcCount = 50000, 1024
	g1 := benchGraph(n, 7)
	g2 := benchGraph(n, 8)
	sources := make([]int, srcCount)
	for i := range sources {
		sources[i] = (i * (n / srcCount)) % n
	}
	cfgs := []struct{ workers, par int }{{1, 1}, {1, 2}, {2, 1}, {2, 2}}
	for _, e := range []Engine{DirectionOpt, BitParallel64} {
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
