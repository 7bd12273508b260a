package dist

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/sssp"
)

// fuzzEngines are the kernels FuzzPairedRows picks from; index len() means a
// unit-weight Dijkstra pair.
var fuzzEngines = []sssp.Engine{sssp.Auto, sssp.TopDown, sssp.DirectionOpt,
	sssp.BitParallel64}

// FuzzPairedRows checks the paired row producer row by row against fresh
// BFS rows, on a random small growing snapshot pair, for every engine, mode,
// Batcher wrapping and constant Δ bound b (0 meaning nil, unbounded).
//
// Unbounded Rows and Derive must return exactly the G1 and G2 rows. Bounded
// calls must return the exact d1, the exact d2 of every node whose true Δ is
// at least b, and never a Δ above the true one for any node extraction reads
// (d1 > 0): that is the whole contract pruned extraction relies on, checked
// here directly on sssp.PrunedSecondBFS and dynsssp.ApplyAllBounded.
func FuzzPairedRows(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(40), uint8(0), false, false, uint8(0), uint8(0))
	f.Add(int64(2), uint8(25), uint8(10), uint8(2), true, false, uint8(3), uint8(1))
	f.Add(int64(3), uint8(40), uint8(60), uint8(6), true, true, uint8(7), uint8(2))
	f.Add(int64(4), uint8(1), uint8(0), uint8(3), true, false, uint8(0), uint8(4))
	f.Add(int64(5), uint8(12), uint8(30), uint8(4), false, true, uint8(11), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nodes, extra, engine uint8, incremental, batched bool, src, b uint8) {
		n := 1 + int(nodes)%48
		g1 := randomGraph(t, n, seed)
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		edges := g1.Edges()
		for i := 0; i < int(extra)%(2*n); i++ {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				edges = append(edges, graph.Edge{U: u, V: v})
			}
		}
		g2 := graph.FromEdges(n, edges)

		var p Pair
		if e := int(engine) % (len(fuzzEngines) + 1); e < len(fuzzEngines) {
			p = BFSPairPar(graph.SnapshotPair{G1: g1, G2: g2}, fuzzEngines[e], 1+e%2)
		} else {
			p = DijkstraPair(graph.FromUnweighted(g1), graph.FromUnweighted(g2))
		}
		if batched {
			opts := BatcherOptions{Immediate: true}
			p = Pair{S1: NewBatcher(p.S1, opts), S2: NewBatcher(p.S2, opts)}
		}
		mode := PairedFull
		if incremental {
			mode = PairedIncremental
		}
		u := int(src) % n
		want1, want2 := make([]int32, n), make([]int32, n)
		sssp.BFS(g1, u, want1)
		sssp.BFS(g2, u, want2)

		var bound func() int32
		if b%5 != 0 {
			bound = func() int32 { return int32(b % 5) }
		}
		w := NewPaired(p, mode).NewWorker()
		d1, d2, derived := make([]int32, n), make([]int32, n), make([]int32, n)
		for i := range d2 {
			d1[i], d2[i], derived[i] = -7, -7, -7 // poison; every call must overwrite
		}
		cutRows := w.Rows(u, d1, d2, bound)
		cutDerive := w.Derive(u, want1, derived, bound)
		if !reflect.DeepEqual(d1, want1) {
			t.Fatalf("Rows d1 from %d differs:\n got  %v\n want %v", u, d1, want1)
		}
		if bound == nil {
			if cutRows || cutDerive {
				t.Fatalf("unbounded call reported a cut")
			}
			if !reflect.DeepEqual(d2, want2) || !reflect.DeepEqual(derived, want2) {
				t.Fatalf("unbounded d2 from %d differs:\n rows   %v\n derive %v\n want   %v", u, d2, derived, want2)
			}
			return
		}
		for _, row := range [][]int32{d2, derived} {
			for v := range row {
				if want1[v] <= 0 {
					continue // extraction never reads these nodes
				}
				trueDelta := want1[v] - want2[v]
				if trueDelta >= int32(b%5) && row[v] != want2[v] {
					t.Fatalf("node %d (Δ %d >= bound %d): d2 = %d, want %d", v, trueDelta, b%5, row[v], want2[v])
				}
				if row[v] < 0 || want1[v]-row[v] > trueDelta {
					t.Fatalf("node %d: reported Δ %d above the true %d (d2 = %d)", v, want1[v]-row[v], trueDelta, row[v])
				}
			}
		}
	})
}
