package sssp

import (
	"sync"
	"testing"
)

// TestParPoolDrainRespawn is the pool shutdown/reuse stress test: spawn the
// pool, run concurrent parallel traversals through it, drain it to zero
// workers, and respawn — three times, verifying distances stay bit-identical
// to the scalar oracle throughout. Run under -race this exercises the
// spawn/drain handshake (channel close, worker exit accounting, fresh
// channel installation) against live fork-join traffic.
func TestParPoolDrainRespawn(t *testing.T) {
	g := bigParGraph(t, 3000, 67)
	n := g.NumNodes()
	srcs := []int{0, 1, 17, n / 2, n - 1}
	oracle := &oracleCache{g: g, rows: map[int][]int32{}}
	for _, src := range srcs {
		oracle.row(src)
	}

	const traversals = 4
	for round := 0; round < 3; round++ {
		// Several concurrent coordinators share the (re)spawned pool.
		var wg sync.WaitGroup
		for i := 0; i < traversals; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				s := NewScratch(n)
				dist := make([]int32, n)
				for _, src := range srcs {
					BFSWith(g, src, dist, TopDown, 4, s)
					want := oracle.rows[src]
					for v := range dist {
						if dist[v] != want[v] {
							t.Errorf("traversal %d src %d: dist[%d] = %d, want %d", i, src, v, dist[v], want[v])
							return
						}
					}
				}
			}(i)
		}
		wg.Wait()

		if parPoolSize.Load() == 0 {
			t.Fatalf("round %d: pool empty after parallel traversals", round)
		}
		drainParPool()
		if got := parPoolSize.Load(); got != 0 {
			t.Fatalf("round %d: %d workers alive after drain, want 0", round, got)
		}
	}

	// A post-drain traversal must transparently respawn the pool.
	s := NewScratch(n)
	dist := make([]int32, n)
	BFSWith(g, srcs[0], dist, DirectionOpt, 4, s)
	want := oracle.rows[srcs[0]]
	for v := range dist {
		if dist[v] != want[v] {
			t.Fatalf("post-drain traversal: dist[%d] = %d, want %d", v, dist[v], want[v])
		}
	}
	if parPoolSize.Load() == 0 {
		t.Fatal("pool did not respawn after drain")
	}
}
