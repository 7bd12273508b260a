package dist

import (
	"context"

	"repro/internal/graph"
	"repro/internal/sssp"
)

// BFS is the unweighted distance source: hop distances on a graph.Graph via
// the sssp BFS kernels. The zero engine (sssp.Auto) picks the fastest kernel
// per call; ablations pin one.
type BFS struct {
	g      *graph.Graph
	engine sssp.Engine
	par    int
}

// NewBFS wraps g as a distance source computing distances with the given
// BFS kernel (sssp.Auto for automatic selection). Each traversal runs
// serially; use NewBFSPar to split scalar traversals across cores.
func NewBFS(g *graph.Graph, engine sssp.Engine) *BFS {
	return NewBFSPar(g, engine, 0)
}

// NewBFSPar is NewBFS with an explicit intra-traversal parallelism: every
// scalar traversal this source runs may split its frontiers across par
// cores (<= 1 = serial; bit-parallel batches always run serially).
// Orthogonal to the sweep workers knob, which spreads sources; see
// sssp.Sweep.
func NewBFSPar(g *graph.Graph, engine sssp.Engine, par int) *BFS {
	return &BFS{g: g, engine: engine, par: par}
}

// BFSPair wraps an unweighted snapshot pair as a dist.Pair sharing one
// engine choice. The caller validates the pair (supergraph invariant).
func BFSPair(pair graph.SnapshotPair, engine sssp.Engine) Pair {
	return BFSPairPar(pair, engine, 0)
}

// BFSPairPar is BFSPair with an explicit intra-traversal parallelism shared
// by both snapshots.
func BFSPairPar(pair graph.SnapshotPair, engine sssp.Engine, par int) Pair {
	return Pair{S1: NewBFSPar(pair.G1, engine, par), S2: NewBFSPar(pair.G2, engine, par)}
}

// NumNodes returns the node-universe size.
func (s *BFS) NumNodes() int { return s.g.NumNodes() }

// NumEdges returns the undirected edge count.
func (s *BFS) NumEdges() int { return s.g.NumEdges() }

// Degree returns the neighbor count of u.
func (s *BFS) Degree(u int) int { return s.g.Degree(u) }

// NeighborIDs returns u's adjacency; aliases internal storage.
func (s *BFS) NeighborIDs(u int) []int32 { return s.g.Neighbors(u) }

// DistancesInto runs one BFS from src, borrowing pooled scratch.
func (s *BFS) DistancesInto(src int, dst []int32) {
	sssp.BFSWith(s.g, src, dst, s.engine, s.par, nil)
}

// NewSession returns a handle owning a private sssp.Scratch.
func (s *BFS) NewSession() Session {
	return &bfsSession{src: s, scratch: sssp.NewScratch(s.g.NumNodes())}
}

// Sweep drives the batched multi-source kernels (bit-parallel BFS when the
// engine resolution picks it), amortizing traversals across sources; once
// ctx is done no further source or batch starts.
func (s *BFS) Sweep(ctx context.Context, sources []int, workers int, fn func(src int, dst []int32)) error {
	return sssp.Sweep(ctx, s.g, sources, workers, s.engine, s.par, fn)
}

// bfsSession reuses one scratch across queries from a single goroutine.
type bfsSession struct {
	src     *BFS
	scratch *sssp.Scratch
}

func (s *bfsSession) DistancesInto(src int, dst []int32) {
	sssp.BFSWith(s.src.g, src, dst, s.src.engine, s.src.par, s.scratch)
}

// asBFS unwraps a Source to its BFS backend (nil when it has none), looking
// through wrappers (e.g. the cross-request Batcher) that expose Unwrap.
func asBFS(s Source) *BFS {
	for {
		if b, ok := s.(*BFS); ok {
			return b
		}
		u, ok := s.(interface{ Unwrap() Source })
		if !ok {
			return nil
		}
		s = u.Unwrap()
	}
}

// UnweightedGraph unwraps a Source to its underlying *graph.Graph when it is
// BFS-backed, looking through wrappers (e.g. the cross-request Batcher) that
// expose Unwrap. Structural selectors (betweenness, embedding, incidence)
// use this to detect — and cleanly reject — metrics they do not generalize to.
func UnweightedGraph(s Source) (*graph.Graph, bool) {
	if b := asBFS(s); b != nil {
		return b.g, true
	}
	return nil, false
}
