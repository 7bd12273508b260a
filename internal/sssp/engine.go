package sssp

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
)

// Engine selects the BFS kernel used by the unweighted shortest-path
// entry points. The engines are interchangeable: every one of them produces
// bit-identical distances (and reached counts / eccentricities) — they
// differ only in throughput on different workload shapes.
type Engine int

const (
	// Auto picks the best kernel for the call shape: direction-optimizing
	// for single sources, bit-parallel batching for multi-source sweeps.
	// A process-wide override can be installed with SetDefaultEngine.
	Auto Engine = iota
	// TopDown is the classic level-by-level scalar BFS — the baseline the
	// paper counts as one unit of budget. Kept selectable for ablations.
	// With parallelism > 1 the level-synchronous parallel kernel runs the
	// same top-down levels split across a worker pool.
	TopDown
	// DirectionOpt is a Beamer-style direction-optimizing BFS: it starts
	// top-down and switches to bottom-up scanning of the unvisited set when
	// the frontier grows past a fraction of the unexplored edges, which
	// skips most edge examinations on small-diameter graphs. With
	// parallelism > 1 both directions split their work across a worker pool
	// (top-down splits the frontier, bottom-up partitions the unvisited
	// bitmap range).
	DirectionOpt
	// BitParallel64 batches up to 64 sources into one sweep, tracking
	// per-node visit sets as machine words (an MS-BFS). Only the
	// multi-source sweeps exploit the batching; for a single source it
	// degenerates to a one-bit sweep and is selectable mainly for testing.
	// Its batches always run serially: a sweep's parallelism comes from
	// its workers, never from par.
	BitParallel64
)

// engineNames is the single source of truth binding engines to their
// flag-friendly spellings. String and ParseEngine both derive from it, so
// -engine stays self-documenting as kernels are added (round-trip pinned by
// TestEngineNameRoundTrip).
var engineNames = []struct {
	e    Engine
	name string
}{
	{Auto, "auto"},
	{TopDown, "topdown"},
	{DirectionOpt, "diropt"},
	{BitParallel64, "bitparallel64"},
}

// engineAliases maps additional accepted spellings to engines.
var engineAliases = map[string]Engine{
	"":                     Auto,
	"scalar":               TopDown,
	"direction-optimizing": DirectionOpt,
	"beamer":               DirectionOpt,
	"bitparallel":          BitParallel64,
	"msbfs":                BitParallel64,
}

// String returns the engine's flag-friendly name.
func (e Engine) String() string {
	for _, en := range engineNames {
		if en.e == e {
			return en.name
		}
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// EngineNames lists the canonical -engine spellings in declaration order.
func EngineNames() []string {
	names := make([]string, len(engineNames))
	for i, en := range engineNames {
		names[i] = en.name
	}
	return names
}

// ParseEngine converts a flag value into an Engine.
func ParseEngine(s string) (Engine, error) {
	for _, en := range engineNames {
		if en.name == s {
			return en.e, nil
		}
	}
	if e, ok := engineAliases[s]; ok {
		return e, nil
	}
	return Auto, fmt.Errorf("sssp: unknown engine %q (want %s)", s, strings.Join(EngineNames(), "|"))
}

// Lanes returns the engine's multi-source batch width: how many sources one
// kernel invocation traverses together. Scalar kernels (and Auto) report 0.
func (e Engine) Lanes() int {
	if e == BitParallel64 {
		return msBatchBits
	}
	return 0
}

// defaultEngine is the process-wide engine that Auto resolves to; Auto
// itself means "use the built-in heuristics".
var defaultEngine atomic.Int32

// SetDefaultEngine installs a process-wide engine override used whenever a
// caller passes (or defaults to) Auto. Ablation harnesses set this once at
// startup; normal callers never touch it.
func SetDefaultEngine(e Engine) { defaultEngine.Store(int32(e)) }

// DefaultEngine returns the current process-wide engine override (Auto when
// none is installed).
func DefaultEngine() Engine { return Engine(defaultEngine.Load()) }

// maxTraversalWorkers caps intra-traversal parallelism (and the shared
// traversal worker pool); far above any realistic core count.
const maxTraversalWorkers = 64

// resolvePar maps a parallelism request to the worker count a scalar
// traversal runs with, clamped to [1, maxTraversalWorkers]: 0 and negative
// values mean serial.
func resolvePar(par int) int {
	if par < 1 {
		return 1
	}
	if par > maxTraversalWorkers {
		return maxTraversalWorkers
	}
	return par
}

// msBatchBits is the base MS-BFS lane width: one source per bit of a uint64.
const msBatchBits = 64

// msAutoThreshold is the minimum source count for which Auto prefers the
// bit-parallel batch engine in the multi-source sweeps; below it the
// per-batch setup (three words per node) isn't worth amortizing.
const msAutoThreshold = 8

// resolveSingle maps an engine request to the kernel used for one source.
func resolveSingle(e Engine) Engine {
	if e == Auto {
		e = DefaultEngine()
	}
	if e == Auto {
		return DirectionOpt
	}
	return e
}

// resolveBatch maps an engine request to the kernel used by a multi-source
// sweep over nsources sources: Auto batches large source sets through the
// 64-lane kernel and runs small ones as scalar traversals.
func resolveBatch(e Engine, nsources int) Engine {
	if e == Auto {
		e = DefaultEngine()
	}
	if e == Auto {
		if nsources >= msAutoThreshold {
			return BitParallel64
		}
		return DirectionOpt
	}
	return e
}

// ClampWorkers resolves a worker-count request against a job count: <= 0
// asks for GOMAXPROCS, the result never exceeds jobs, and is at least 1.
// This is the one shared clamping rule for every parallel driver (sssp
// sweeps, dist sessions pools, topk shards, core extraction).
func ClampWorkers(workers, jobs int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > jobs {
		workers = jobs
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Scratch holds every buffer a BFS kernel needs beyond the caller's dist
// slice: the index-cursor frontier queue, the bottom-up frontier bitmaps,
// the bit-parallel visit words (one per node), and the parallel kernels'
// shared visited bitmap plus per-worker state. A Scratch grows to the
// largest graph (and highest parallelism) it has served and is then
// allocation-free; it is not safe for concurrent use by multiple callers —
// the parallel kernels hand disjoint pieces of it to the traversal worker
// pool internally. Parallel drivers keep one Scratch per worker;
// single-shot entry points borrow one from an internal pool.
type Scratch struct {
	queue []int32 // frontier queue, cursor-indexed (cap >= n)
	cur   []uint64
	nxt   []uint64 // bottom-up frontier bitmaps, (n+63)/64 words

	// Bit-parallel (MS-BFS) state: one word per node.
	seen  []uint64
	front []uint64
	next  []uint64
	nextQ []int32

	// vis is the parallel scalar kernels' shared visited bitmap (claimed
	// with CAS during parallel top-down levels).
	vis []uint64

	// par is the reusable fork-join state handed to the traversal worker
	// pool; it embeds the per-worker next-queues and counters.
	par parRun

	// rows is the sweep driver's distance-row block: up to rowsLanes rows of
	// length rowsN, all views into the grow-only rowsBacking array (see
	// ensureRows).
	rows        [][]int32
	rowsBacking []int32
	rowsN       int
	rowsLanes   int

	// One-lane views for single-source calls routed through the batch
	// kernel, so BFSWith stays allocation-free on every engine (oneRow[0]
	// is cleared after each call; the caller's dist buffer is not retained).
	oneSrc [1]int
	oneRow [1][]int32
}

// NewScratch returns a Scratch pre-sized for graphs of n nodes.
func NewScratch(n int) *Scratch {
	s := &Scratch{}
	s.ensure(n)
	return s
}

// ensure grows the single-source buffers to serve an n-node graph.
func (s *Scratch) ensure(n int) {
	if cap(s.queue) < n {
		s.queue = make([]int32, 0, n)
	}
	words := (n + 63) / 64
	if len(s.cur) < words {
		s.cur = make([]uint64, words)
		s.nxt = make([]uint64, words)
	}
}

// ensureMS grows the bit-parallel buffers to serve an n-node graph and
// zeroes the visit words.
func (s *Scratch) ensureMS(n int) {
	s.ensure(n)
	if len(s.seen) < n {
		s.seen = make([]uint64, n)
		s.front = make([]uint64, n)
		s.next = make([]uint64, n)
	} else {
		// front/next are left all-zero by msBFSBatch; only seen needs
		// clearing.
		clearWords(s.seen[:n])
	}
	if cap(s.nextQ) < n {
		s.nextQ = make([]int32, 0, n)
	}
}

// ensurePar grows the parallel kernels' shared visited bitmap and the
// per-worker state block for k workers.
func (s *Scratch) ensurePar(n, k int) {
	s.ensure(n)
	words := (n + 63) / 64
	if len(s.vis) < words {
		s.vis = make([]uint64, words)
	}
	s.par.ensureWorkers(k, n)
}

// ensureRows returns lanes distance rows of exactly length n, all views into
// one grow-only backing array. The backing (and the row-header block) only
// ever grow: eval suites alternating between graph sizes or lane widths
// re-point the row headers without reallocating, so a warmed Scratch serves
// any (n, lanes) it has ever seen allocation-free (pinned by
// TestEnsureRowsGrowOnly). Only the sweep driver calls this; single-source
// BFSWith calls write into the caller's dist buffer and never pay for the
// row block.
func (s *Scratch) ensureRows(n, lanes int) [][]int32 {
	if s.rowsN == n && lanes <= s.rowsLanes {
		return s.rows[:lanes]
	}
	if need := lanes * n; cap(s.rowsBacking) < need {
		s.rowsBacking = make([]int32, need)
	}
	backing := s.rowsBacking[:cap(s.rowsBacking)]
	if cap(s.rows) < lanes {
		s.rows = make([][]int32, lanes)
	}
	s.rows = s.rows[:cap(s.rows)]
	// Re-point every header the backing can hold at length n, so a later
	// call asking for more lanes at this n is a pure reslice.
	maxLanes := len(s.rows)
	if n > 0 && len(backing)/n < maxLanes {
		maxLanes = len(backing) / n
	}
	for i := 0; i < maxLanes; i++ {
		s.rows[i] = backing[i*n : (i+1)*n]
	}
	s.rows = s.rows[:maxLanes]
	s.rowsN, s.rowsLanes = n, maxLanes
	return s.rows[:lanes]
}

func clearWords(w []uint64) {
	for i := range w {
		w[i] = 0
	}
}

// scratchPool recycles Scratches for entry points called without one.
var scratchPool = sync.Pool{New: func() any { return &Scratch{} }}

func getScratch(n int) *Scratch {
	s := scratchPool.Get().(*Scratch)
	s.ensure(n)
	return s
}

func putScratch(s *Scratch) { scratchPool.Put(s) }
