package graph

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyGraph(t *testing.T) {
	var g Graph
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("zero graph: got %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	if g.Density() != 0 {
		t.Fatalf("zero graph density = %v, want 0", g.Density())
	}
	if g.MaxDegree() != 0 {
		t.Fatalf("zero graph max degree = %d, want 0", g.MaxDegree())
	}
	built := NewBuilder(0).Build()
	if built.NumNodes() != 0 || built.NumEdges() != 0 {
		t.Fatalf("built empty graph: got %d nodes, %d edges", built.NumNodes(), built.NumEdges())
	}
}

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(4)
	for _, e := range []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		if err := b.AddEdge(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	if g.NumNodes() != 4 || g.NumEdges() != 4 {
		t.Fatalf("got %d nodes %d edges, want 4 and 4", g.NumNodes(), g.NumEdges())
	}
	for u := 0; u < 4; u++ {
		if g.Degree(u) != 2 {
			t.Errorf("degree(%d) = %d, want 2", u, g.Degree(u))
		}
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("missing edge {0,1}")
	}
	if g.HasEdge(0, 2) {
		t.Error("unexpected edge {0,2}")
	}
	if g.HasEdge(0, 9) || g.HasEdge(-1, 0) {
		t.Error("HasEdge out of range should be false")
	}
}

func TestBuilderDedupAndSelfLoops(t *testing.T) {
	b := NewBuilder(3)
	mustAdd := func(u, v int) {
		t.Helper()
		if err := b.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(0, 1)
	mustAdd(1, 0) // duplicate, reversed
	mustAdd(0, 1) // duplicate
	mustAdd(2, 2) // self-loop
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1 (dedup + no self-loops)", g.NumEdges())
	}
	if g.Degree(2) != 0 {
		t.Fatalf("self-loop should be dropped, degree(2) = %d", g.Degree(2))
	}
}

func TestBuilderGrowsUniverse(t *testing.T) {
	b := NewBuilder(2)
	if err := b.AddEdge(0, 7); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if g.NumNodes() != 8 {
		t.Fatalf("NumNodes = %d, want 8", g.NumNodes())
	}
}

// TestBuilderNegativeNode pins that negative IDs, and IDs the int32
// adjacency cannot hold, are refused rather than truncated, and leave the
// edge set and the ingester's state alone.
func TestBuilderNegativeNode(t *testing.T) {
	b := NewBuilder(2)
	for _, id := range []int{-1, math.MaxInt32, 1 << 31, 1<<31 + 5} {
		if err := b.AddEdge(0, id); !errors.Is(err, ErrNodeRange) {
			t.Fatalf("AddEdge(0, %d) = %v, want ErrNodeRange", id, err)
		}
	}
	if err := b.AddEdge(0, math.MaxInt32-1); err != nil {
		t.Fatalf("AddEdge(0, MaxInt32-1) = %v, want nil", err)
	}
	if b.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", b.NumEdges())
	}
	in := NewIngester(IngesterOptions{})
	if _, err := in.Ingest(TimedEdge{U: 1 << 31, V: 0}); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("Ingest(2^31, 0) = %v, want ErrNodeRange", err)
	}
	if in.EdgeCount() != 0 || in.Seal().Graph().NumNodes() != 0 {
		t.Fatal("refused edge reached the ingester's state")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := FromEdges(6, []Edge{{3, 5}, {3, 1}, {3, 4}, {3, 0}, {3, 2}})
	adj := g.Neighbors(3)
	if !sort.SliceIsSorted(adj, func(i, j int) bool { return adj[i] < adj[j] }) {
		t.Fatalf("neighbors not sorted: %v", adj)
	}
	if len(adj) != 5 {
		t.Fatalf("len(adj) = %d, want 5", len(adj))
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	want := []Edge{{0, 1}, {0, 3}, {1, 2}, {2, 3}}
	g := FromEdges(4, want)
	got := g.Edges()
	sort.Slice(got, func(i, j int) bool {
		if got[i].U != got[j].U {
			return got[i].U < got[j].U
		}
		return got[i].V < got[j].V
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Edges() = %v, want %v", got, want)
	}
}

func TestDensityAndMaxDegree(t *testing.T) {
	// Complete graph on 4 nodes: density 1, max degree 3.
	g := FromEdges(4, []Edge{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	if d := g.Density(); d != 1 {
		t.Errorf("K4 density = %v, want 1", d)
	}
	if g.MaxDegree() != 3 {
		t.Errorf("K4 max degree = %d, want 3", g.MaxDegree())
	}
	// Star on 5 nodes: 4 edges, max degree 4.
	star := FromEdges(5, []Edge{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	if star.MaxDegree() != 4 {
		t.Errorf("star max degree = %d, want 4", star.MaxDegree())
	}
}

func TestIsSupergraphOf(t *testing.T) {
	g1 := FromEdges(4, []Edge{{0, 1}, {1, 2}})
	g2 := FromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}})
	if !g2.IsSupergraphOf(g1) {
		t.Error("g2 should be a supergraph of g1")
	}
	if g1.IsSupergraphOf(g2) {
		t.Error("g1 should not be a supergraph of g2")
	}
	if !g1.IsSupergraphOf(g1) {
		t.Error("a graph is a supergraph of itself")
	}
	bigger := FromEdges(5, nil)
	if g1.IsSupergraphOf(bigger) {
		t.Error("smaller universe cannot be a supergraph of a larger one")
	}
}

// Property: building a graph from random edges preserves exactly the deduped
// edge set, adjacency is symmetric, and degrees sum to 2|E|.
func TestBuildProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		want := make(map[Edge]struct{})
		b := NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if err := b.AddEdge(u, v); err != nil {
				return false
			}
			if u != v {
				want[Edge{u, v}.Canon()] = struct{}{}
			}
		}
		g := b.Build()
		if g.NumEdges() != len(want) {
			return false
		}
		degSum := 0
		for u := 0; u < n; u++ {
			degSum += g.Degree(u)
			for _, v := range g.Neighbors(u) {
				if !g.HasEdge(int(v), u) { // symmetry
					return false
				}
				if _, ok := want[Edge{u, int(v)}.Canon()]; !ok {
					return false
				}
			}
		}
		return degSum == 2*len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestComponents(t *testing.T) {
	// Two triangles plus an isolated node.
	g := FromEdges(7, []Edge{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}})
	labels, count := Components(g)
	if count != 3 {
		t.Fatalf("component count = %d, want 3", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Error("first triangle split across components")
	}
	if labels[3] != labels[4] || labels[4] != labels[5] {
		t.Error("second triangle split across components")
	}
	if labels[0] == labels[3] || labels[0] == labels[6] {
		t.Error("distinct components share a label")
	}
}

func TestLargestComponent(t *testing.T) {
	g := FromEdges(8, []Edge{{0, 1}, {1, 2}, {2, 3}, {4, 5}, {6, 7}})
	nodes, count := LargestComponent(g)
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if !reflect.DeepEqual(nodes, []int{0, 1, 2, 3}) {
		t.Fatalf("largest component = %v, want [0 1 2 3]", nodes)
	}
	if n, c := emptyLargest(); n != nil || c != 0 {
		t.Fatalf("empty graph largest component = %v, %d", n, c)
	}
}

func emptyLargest() ([]int, int) {
	var g Graph
	return LargestComponent(&g)
}

func TestSameComponent(t *testing.T) {
	g := FromEdges(5, []Edge{{0, 1}, {2, 3}})
	same := SameComponent(g)
	if !same(0, 1) || same(0, 2) || same(1, 4) || !same(4, 4) {
		t.Fatal("SameComponent predicate incorrect")
	}
}
