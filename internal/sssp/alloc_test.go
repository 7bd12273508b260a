package sssp

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/invariant"
)

// TestBFSWithZeroAllocs is the runtime backstop for what the hotalloc
// analyzer checks statically: with a caller-provided, warmed Scratch, one
// BFSWith call allocates nothing on any engine. This is the property the
// multi-source sweep's 3.34x win rests on.
func TestBFSWithZeroAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("CSR invariant assertions allocate; zero-alloc holds for default builds")
	}
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 2000, 6000)
	n := g.NumNodes()
	dist := make([]int32, n)
	for _, eng := range []Engine{TopDown, DirectionOpt, BitParallel64} {
		t.Run(eng.String(), func(t *testing.T) {
			s := NewScratch(n)
			// Warm every buffer the engine lazily grows (MS-BFS visit words,
			// bitmap frontiers); steady-state calls must then be free.
			BFSWith(g, 0, dist, eng, 0, s)
			src := 0
			allocs := testing.AllocsPerRun(50, func() {
				BFSWith(g, src%n, dist, eng, 0, s)
				src++
			})
			if allocs != 0 {
				t.Errorf("engine %v: %.1f allocs per BFSWith with provided Scratch, want 0", eng, allocs)
			}
		})
	}
}

// TestSweepAllocsPerWorker pins Sweep's allocations to its workers, not its
// sources: one worker sweeping 640 sources allocates exactly what it does
// for 64, on the scalar engines (one-source batches) and the 64-lane kernel
// alike.
func TestSweepAllocsPerWorker(t *testing.T) {
	if invariant.Enabled {
		t.Skip("CSR invariant assertions allocate; per-worker allocation holds for default builds")
	}
	rng := rand.New(rand.NewSource(13))
	g := randomGraph(rng, 500, 1500)
	n := g.NumNodes()
	sources := make([]int, 640)
	for i := range sources {
		sources[i] = (i * 7) % n
	}
	for _, eng := range []Engine{TopDown, DirectionOpt, BitParallel64} {
		t.Run(eng.String(), func(t *testing.T) {
			sweep := func(srcs []int) float64 {
				return testing.AllocsPerRun(20, func() {
					_ = Sweep(context.Background(), g, srcs, 1, eng, 1, func(int, []int32) {})
				})
			}
			if small, large := sweep(sources[:64]), sweep(sources); small != large {
				t.Errorf("engine %v: %.1f allocs sweeping 64 sources, %.1f sweeping 640", eng, small, large)
			}
		})
	}
}
