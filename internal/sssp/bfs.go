// Package sssp implements the single-source shortest-path engines the paper
// treats as its unit of computational cost: breadth-first search for
// unweighted snapshots, Dijkstra's algorithm for weighted ones, and a
// multi-source sweep driver used to compute exact ground truth.
//
// Distances are int32; Unreachable marks node pairs in different connected
// components. Engines reuse caller-provided buffers so that tight loops
// (candidate generation, all-pairs sweeps) do not allocate per source.
//
// Interchangeable BFS kernels back the unweighted entry points (see
// Engine): the scalar TopDown baseline, a Beamer-style DirectionOpt hybrid,
// and the 64-lane BitParallel64 multi-source batch engine used by Sweep and
// PairedSweep. All of them produce bit-identical distances.
package sssp

import (
	"fmt"

	"repro/internal/graph"
)

// Unreachable is the distance reported for nodes with no path from the
// source. It is negative so that max-style comparisons ignore it naturally.
const Unreachable int32 = -1

// BFS computes unweighted shortest-path distances from src into dist, which
// must have length g.NumNodes(). Unreached nodes get Unreachable. It returns
// the number of reached nodes (including src) and the eccentricity of src
// within its component. The kernel is chosen by the Auto engine; use
// BFSWith to pin one or to thread a per-worker Scratch.
func BFS(g *graph.Graph, src int, dist []int32) (reached int, ecc int32) {
	return BFSWith(g, src, dist, Auto, 0, nil)
}

// BFSWith is BFS with an explicit engine, intra-traversal parallelism and
// scratch space. par is the number of cores this one traversal may split
// its frontiers across (<= 1 = serial; the bit-parallel engine always runs
// serially). Every (engine, parallelism) combination produces
// bit-identical results; parallelism changes only wall-clock, never
// distances, budget, or traversal-work metrics. A nil scratch borrows one
// from an internal pool; parallel drivers pass one per worker so the whole
// sweep allocates nothing per source.
//
//convlint:hotpath
func BFSWith(g *graph.Graph, src int, dist []int32, e Engine, par int, s *Scratch) (reached int, ecc int32) {
	n := g.NumNodes()
	if len(dist) != n {
		panic(fmt.Sprintf("sssp: dist buffer length %d, graph has %d nodes", len(dist), n))
	}
	if src < 0 || src >= n {
		panic(fmt.Sprintf("sssp: source %d out of range [0,%d)", src, n))
	}
	if s == nil {
		s = getScratch(n)
		defer putScratch(s)
	} else {
		s.ensure(n)
	}
	k := resolvePar(par)
	switch eng := resolveSingle(e); eng {
	case DirectionOpt:
		for i := range dist {
			dist[i] = Unreachable
		}
		if k > 1 {
			return parBFS(g, src, dist, k, true, s)
		}
		return dirOptBFS(g, src, dist, s)
	case BitParallel64:
		// One-lane batch: correct but without batching leverage; selectable
		// for differential testing and ablations. The scratch-owned one-lane
		// views keep this path allocation-free like the other engines.
		s.oneSrc[0] = src
		s.oneRow[0] = dist
		msBFSBatch(g, s.oneSrc[:], s.oneRow[:], s)
		s.oneRow[0] = nil
		for _, d := range dist {
			if d >= 0 {
				reached++
				if d > ecc {
					ecc = d
				}
			}
		}
		return reached, ecc
	default:
		for i := range dist {
			dist[i] = Unreachable
		}
		if k > 1 {
			return parBFS(g, src, dist, k, false, s)
		}
		return topDownBFS(g, src, dist, s)
	}
}

// Distances is a convenience wrapper around BFS that allocates the buffer.
func Distances(g *graph.Graph, src int) []int32 {
	dist := make([]int32, g.NumNodes())
	BFS(g, src, dist)
	return dist
}

// Path returns one shortest path from src to dst as a node sequence
// (inclusive), or nil if dst is unreachable. It runs a parent-tracking BFS;
// among equal-length paths the one through lowest-ID parents is returned,
// making the result deterministic.
func Path(g *graph.Graph, src, dst int) []int {
	n := g.NumNodes()
	if src < 0 || src >= n || dst < 0 || dst >= n {
		panic(fmt.Sprintf("sssp: path endpoints (%d, %d) out of range [0,%d)", src, dst, n))
	}
	if src == dst {
		return []int{src}
	}
	offsets, neighbors := g.CSR()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = -1
	}
	parent[src] = int32(src)
	s := getScratch(n)
	defer putScratch(s)
	q := s.queue[:0]
	q = append(q, int32(src))
	defer func() { s.queue = q[:0] }()
	for head := 0; head < len(q); head++ {
		u := q[head]
		for _, v := range neighbors[offsets[u]:offsets[u+1]] {
			if parent[v] >= 0 {
				continue
			}
			parent[v] = u
			if int(v) == dst {
				// Reconstruct by walking parents back to src.
				var rev []int
				for x := int32(dst); x != int32(src); x = parent[x] {
					rev = append(rev, int(x))
				}
				rev = append(rev, src)
				for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
					rev[i], rev[j] = rev[j], rev[i]
				}
				return rev
			}
			q = append(q, v)
		}
	}
	return nil
}
