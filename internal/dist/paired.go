package dist

import (
	"fmt"

	"repro/internal/dynsssp"
	"repro/internal/graph"
	"repro/internal/sssp"
)

// PairedMode selects how the second-snapshot distance row of a paired query
// is produced.
type PairedMode int

const (
	// PairedFull recomputes the t2 row with a full traversal of G_t2 — the
	// paper's literal 2-SSSPs-per-candidate extraction.
	PairedFull PairedMode = iota
	// PairedIncremental derives the t2 row from the t1 row by batch-applying
	// the snapshot edge delta with dynsssp's decrease-only repair, skipping
	// the unchanged region of the graph. Falls back to PairedFull when the
	// pair does not support it (non-BFS metrics, mismatched universes).
	PairedIncremental
)

// String returns the CLI spelling of the mode.
func (m PairedMode) String() string {
	switch m {
	case PairedFull:
		return "full"
	case PairedIncremental:
		return "incremental"
	default:
		return fmt.Sprintf("PairedMode(%d)", int(m))
	}
}

// ParsePairedMode parses the -paired CLI flag values "full" and
// "incremental". The empty string means full (the default).
func ParsePairedMode(s string) (PairedMode, error) {
	switch s {
	case "", "full":
		return PairedFull, nil
	case "incremental":
		return PairedIncremental, nil
	default:
		return PairedFull, fmt.Errorf("dist: unknown paired mode %q (want full or incremental)", s)
	}
}

// Paired produces both snapshot rows of a source over one Pair, the
// per-candidate step of Algorithm 1. It is built once per pair (incremental
// mode computes the snapshot edge delta there), is immutable afterwards, and
// hands out one PairedWorker per extraction goroutine.
//
// Each row takes one fixed route. In full mode the t1 row comes from a
// session on S1 (the Batcher, when serving), an unbounded t2 row from a
// session on S2, and a bounded t2 row from sssp.PrunedSecondBFS on G2. In
// incremental mode (both sides BFS-backed over one node universe) the t1 row
// is a traversal of G1 with S1's kernel on the worker's own scratch, and the
// t2 row repairs a copy of it over the edge delta G2 \ G1 with dynsssp's
// decrease-only wave; G2 is never fully traversed, so there is nothing to
// batch. Pairs without a BFS-backed G2 (Dijkstra) run full and ignore the
// bound.
type Paired struct {
	p     Pair
	mode  PairedMode
	b1    *BFS         // S1's backend, driving incremental t1 traversals
	g2    *graph.Graph // G2 when S2 is BFS-backed, else nil
	delta *graph.Delta // G2 \ G1, incremental mode only
}

// NewPaired builds the row producer for p in the requested mode.
// PairedIncremental silently falls back to full when the pair cannot share
// an edge delta (e.g. Dijkstra sources); Mode reports what was built.
func NewPaired(p Pair, mode PairedMode) *Paired {
	e := &Paired{p: p, mode: PairedFull}
	if b2 := asBFS(p.S2); b2 != nil {
		e.g2 = b2.g
	}
	if b1 := asBFS(p.S1); mode == PairedIncremental && b1 != nil && e.g2 != nil && b1.g.NumNodes() == e.g2.NumNodes() {
		e.mode, e.b1, e.delta = PairedIncremental, b1, graph.NewDelta(b1.g, e.g2)
	}
	return e
}

// Mode reports the mode the producer runs in: PairedFull when an
// incremental request fell back.
func (e *Paired) Mode() PairedMode { return e.mode }

// NewWorker returns a single-goroutine handle owning the traversal and
// repair scratch of one worker.
func (e *Paired) NewWorker() *PairedWorker {
	if e.mode == PairedIncremental {
		return &PairedWorker{e: e, scratch: sssp.NewScratch(e.b1.g.NumNodes()), repair: dynsssp.NewScratch()}
	}
	return &PairedWorker{e: e, s1: NewSession(e.p.S1), s2: NewSession(e.p.S2)}
}

// PairedWorker produces both snapshot rows of one source at a time. Both
// methods follow the paper's cost model: one budget unit per distance row
// produced, however much traversal producing it took, so Rows costs 2 units
// and Derive 1 in every mode. Callers charge their meter before calling.
//
// bound is the Δ-threshold of pruned extraction; nil means unbounded. t2 work
// stops once bound() proves no remaining node can reach a top-k pair (see
// sssp.PrunedSecondBFS for the soundness argument), and both methods report
// whether it was cut. A cut d2 row is valid only for delta extraction against
// its d1: abandoned nodes hold d2 = d1 (delta 0), not their true distance, so
// it must never be cached or served as a distance row. The bound changes
// machine work, never the charge.
type PairedWorker struct {
	e       *Paired
	s1, s2  Session             // full mode
	pruned  *sssp.PrunedScratch // full mode, bounded t2; allocated on first use
	scratch *sssp.Scratch       // incremental t1 traversal
	repair  *dynsssp.Scratch    // incremental t2 repair
}

// Rows fills d1 and d2 (each length NumNodes) with src's rows on G_t1 and
// G_t2 and reports whether the t2 work was cut. Costs 2 budget units.
func (s *PairedWorker) Rows(src int, d1, d2 []int32, bound func() int32) bool {
	if b := s.e.b1; b != nil {
		sssp.BFSWith(b.g, src, d1, b.engine, b.par, s.scratch)
	} else {
		s.s1.DistancesInto(src, d1)
	}
	return s.Derive(src, d1, d2, bound)
}

// Derive fills d2 with src's G_t2 row given its already computed G_t1 row d1
// (read-only) and reports whether the work was cut. Incremental mode repairs
// a copy of d1; full mode re-traverses G_t2, reading d1 only to bound the
// traversal. Costs 1 budget unit.
func (s *PairedWorker) Derive(src int, d1, d2 []int32, bound func() int32) bool {
	switch {
	case s.e.delta != nil:
		copy(d2, d1)
		if bound == nil {
			s.repair.ApplyAll(s.e.g2, s.e.delta.Edges, d2)
			return false
		}
		_, cut := s.repair.ApplyAllBounded(s.e.g2, s.e.delta.Edges, d2, d1, bound)
		return cut
	case bound == nil || s.e.g2 == nil:
		s.s2.DistancesInto(src, d2)
		return false
	}
	if s.pruned == nil {
		s.pruned = &sssp.PrunedScratch{}
	}
	return sssp.PrunedSecondBFS(s.e.g2, src, d1, d2, bound, s.pruned)
}
