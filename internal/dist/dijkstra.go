package dist

import (
	"repro/internal/graph"
	"repro/internal/sssp"
)

// Dijkstra is the weighted distance source: shortest travel times on a
// graph.Weighted via sssp's lazy-deletion heap Dijkstra. Distances are
// int32 weight sums, directly comparable to BFS hop counts in the shared
// pipeline (both use Unreachable for disconnected pairs).
type Dijkstra struct {
	g *graph.Weighted
}

// NewDijkstra wraps g as a weighted distance source.
func NewDijkstra(g *graph.Weighted) *Dijkstra { return &Dijkstra{g: g} }

// DijkstraPair wraps a weighted snapshot pair as a dist.Pair. The caller
// validates domination (weighted.SnapshotPair.Validate).
func DijkstraPair(g1, g2 *graph.Weighted) Pair {
	return Pair{S1: NewDijkstra(g1), S2: NewDijkstra(g2)}
}

// NumNodes returns the node-universe size.
func (s *Dijkstra) NumNodes() int { return s.g.NumNodes() }

// NumEdges returns the undirected edge count.
func (s *Dijkstra) NumEdges() int { return s.g.NumEdges() }

// Degree returns the neighbor count of u.
func (s *Dijkstra) Degree(u int) int { return s.g.Degree(u) }

// NeighborIDs returns u's adjacency without weights; aliases internal
// storage.
func (s *Dijkstra) NeighborIDs(u int) []int32 { return s.g.NeighborIDs(u) }

// DistancesInto runs one Dijkstra from src with a fresh scratch.
func (s *Dijkstra) DistancesInto(src int, dst []int32) {
	sssp.DijkstraWith(s.g, src, dst, nil)
}

// NewSession returns a handle owning a private DijkstraScratch, so repeated
// queries reuse the settled bitmap and heap storage.
func (s *Dijkstra) NewSession() Session {
	return &dijkstraSession{src: s, scratch: sssp.NewDijkstraScratch(s.g.NumNodes())}
}

// dijkstraSession reuses one scratch across queries from a single goroutine.
type dijkstraSession struct {
	src     *Dijkstra
	scratch *sssp.DijkstraScratch
}

func (s *dijkstraSession) DistancesInto(src int, dst []int32) {
	sssp.DijkstraWith(s.src.g, src, dst, s.scratch)
}
