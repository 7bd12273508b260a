package sssp

import (
	"bytes"
	"context"
	"math/rand"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/invariant"
)

// bigParGraph builds a graph large enough that the parallel kernels actually
// cross their serial cutoffs (frontiers of thousands of nodes), with
// isolated nodes appended so disconnected components are exercised too.
func bigParGraph(tb testing.TB, n int, seed int64) *graph.Graph {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	return prefAttach(n, 3, n/20, rng)
}

// oracleCache memoizes referenceBFS rows per source, so driver tests over
// hundreds of sources (with duplicates) stay fast.
type oracleCache struct {
	g    *graph.Graph
	rows map[int][]int32
}

func (o *oracleCache) row(src int) []int32 {
	if r, ok := o.rows[src]; ok {
		return r
	}
	r, _, _ := referenceBFS(o.g, src)
	o.rows[src] = r
	return r
}

// TestParallelEnginesDifferential pins the parallel level-synchronous kernel
// bit-identical to the scalar oracle on graphs big enough to split frontiers
// across workers (including direction-optimized bottom-up levels, duplicate
// calls on a warm Scratch, and sources inside isolated components).
func TestParallelEnginesDifferential(t *testing.T) {
	g := bigParGraph(t, 4000, 23)
	n := g.NumNodes()
	rng := rand.New(rand.NewSource(29))
	srcs := []int{0, 1, n - 1} // n-1 is isolated with high probability
	for i := 0; i < 5; i++ {
		srcs = append(srcs, rng.Intn(n))
	}
	dist := make([]int32, n)
	oracle := &oracleCache{g: g, rows: map[int][]int32{}}
	for _, e := range []Engine{TopDown, DirectionOpt} {
		s := NewScratch(n)
		for _, par := range []int{2, 3, 8} {
			for _, src := range srcs {
				want := oracle.row(src)
				reached, ecc := BFSWith(g, src, dist, e, par, s)
				wantReached, wantEcc := 0, int32(0)
				for _, d := range want {
					if d >= 0 {
						wantReached++
						if d > wantEcc {
							wantEcc = d
						}
					}
				}
				if reached != wantReached || ecc != wantEcc {
					t.Fatalf("engine %v par %d src %d: (reached, ecc) = (%d, %d), want (%d, %d)",
						e, par, src, reached, ecc, wantReached, wantEcc)
				}
				for v := range dist {
					if dist[v] != want[v] {
						t.Fatalf("engine %v par %d src %d: dist[%d] = %d, want %d",
							e, par, src, v, dist[v], want[v])
					}
				}
			}
		}
	}
}

// TestWideDriversDifferential pins every engine bit-identical to the oracle
// through the multi-source driver at workers=2, serial and with par > 1
// requested, with a source set spanning several 64-lane batch boundaries and
// containing duplicates.
func TestWideDriversDifferential(t *testing.T) {
	g := bigParGraph(t, 3000, 31)
	n := g.NumNodes()
	rng := rand.New(rand.NewSource(37))
	sources := make([]int, 0, 600)
	for i := 0; i < 596; i++ {
		sources = append(sources, rng.Intn(n))
	}
	sources = append(sources, sources[0], sources[1], n-1, n-1)
	// Prefill the oracle serially: fn below runs concurrently (workers=2)
	// and must only read shared state.
	oracle := &oracleCache{g: g, rows: map[int][]int32{}}
	for _, src := range sources {
		oracle.row(src)
	}
	for _, e := range []Engine{TopDown, DirectionOpt, BitParallel64} {
		for _, par := range []int{1, 4} {
			var calls atomic.Int64
			var failed atomic.Bool
			Sweep(context.Background(), g, sources, 2, e, par, func(src int, dist []int32) {
				calls.Add(1)
				want := oracle.rows[src]
				for v := range dist {
					if dist[v] != want[v] {
						failed.Store(true)
						return
					}
				}
			})
			if failed.Load() {
				t.Fatalf("engine %v par %d: distances diverge from oracle", e, par)
			}
			if calls.Load() != int64(len(sources)) {
				t.Fatalf("engine %v par %d: fn called %d times for %d sources", e, par, calls.Load(), len(sources))
			}
		}
	}
}

// TestSweepWorkersLabelKernel checks that sweep workers carry the resolved
// engine's name as their pprof kernel label, so a profile of a scalar sweep
// attributes its time to the scalar kernel rather than the batch kernel.
func TestSweepWorkersLabelKernel(t *testing.T) {
	g := bigParGraph(t, 600, 71)
	sources := make([]int, 16) // one-source batches shared by two workers
	for i := range sources {
		sources[i] = i % g.NumNodes()
	}
	var once sync.Once
	var profile bytes.Buffer
	err := Sweep(context.Background(), g, sources, 2, DirectionOpt, 1, func(int, []int32) {
		once.Do(func() {
			if err := pprof.Lookup("goroutine").WriteTo(&profile, 1); err != nil {
				t.Error(err)
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(profile.Bytes(), []byte(`"kernel":"diropt"`)) {
		t.Fatalf("no sweep worker labeled kernel=diropt in the goroutine profile:\n%s", profile.String())
	}
}

// TestPairedWideDriver covers the two-snapshot driver under the bit-parallel
// engine across several batches, with two workers and par > 1 requested.
func TestPairedWideDriver(t *testing.T) {
	g1 := bigParGraph(t, 1500, 41)
	g2 := bigParGraph(t, 1500, 43)
	n := g1.NumNodes()
	rng := rand.New(rand.NewSource(47))
	sources := make([]int, 0, 300)
	for i := 0; i < 300; i++ {
		sources = append(sources, rng.Intn(n))
	}
	o1 := &oracleCache{g: g1, rows: map[int][]int32{}}
	o2 := &oracleCache{g: g2, rows: map[int][]int32{}}
	for _, src := range sources {
		o1.row(src)
		o2.row(src)
	}
	var failed atomic.Bool
	PairedSweep(context.Background(), g1, g2, sources, 2, BitParallel64, 2, func(src int, d1, d2 []int32) {
		w1, w2 := o1.rows[src], o2.rows[src]
		for v := range d1 {
			if d1[v] != w1[v] || d2[v] != w2[v] {
				failed.Store(true)
				return
			}
		}
	})
	if failed.Load() {
		t.Fatal("paired bit-parallel sweep distances diverge from oracle")
	}
}

// TestEngineNameRoundTrip pins that every engine name String() produces is
// accepted back by ParseEngine, and that the ParseEngine error enumerates
// every name (so -engine stays self-documenting as kernels are added).
func TestEngineNameRoundTrip(t *testing.T) {
	all := []Engine{Auto, TopDown, DirectionOpt, BitParallel64}
	if len(all) != len(EngineNames()) {
		t.Fatalf("EngineNames lists %d engines, test covers %d — keep both in sync", len(EngineNames()), len(all))
	}
	for _, e := range all {
		got, err := ParseEngine(e.String())
		if err != nil {
			t.Fatalf("ParseEngine(%q): %v", e.String(), err)
		}
		if got != e {
			t.Fatalf("ParseEngine(%q) = %v, want %v", e.String(), got, e)
		}
	}
	_, err := ParseEngine("nonsense")
	if err == nil {
		t.Fatal("ParseEngine(nonsense): expected error")
	}
	for _, name := range EngineNames() {
		if !containsStr(err.Error(), name) {
			t.Fatalf("ParseEngine error %q does not mention engine %q", err, name)
		}
	}
	// The removed 256/512-lane engines are refused, and the error names the
	// four survivors.
	for _, gone := range []string{"bitparallel256", "bitparallel512"} {
		_, err := ParseEngine(gone)
		if err == nil {
			t.Fatalf("ParseEngine(%q): expected error for a removed engine", gone)
		}
		for _, name := range []string{"auto", "topdown", "diropt", "bitparallel64"} {
			if !containsStr(err.Error(), name) {
				t.Fatalf("ParseEngine(%q) error %q does not mention engine %q", gone, err, name)
			}
		}
	}
	// Lane widths drive batch sizing; pin them to the names.
	wantLanes := map[Engine]int{Auto: 0, TopDown: 0, DirectionOpt: 0, BitParallel64: 64}
	for e, want := range wantLanes {
		if e.Lanes() != want {
			t.Fatalf("%v.Lanes() = %d, want %d", e, e.Lanes(), want)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestClampWorkers is the table test for the one shared worker-clamping rule
// (satellite of the dedup across topk/dist/core).
func TestClampWorkers(t *testing.T) {
	cases := []struct {
		workers, jobs, wantMin, wantMax int
	}{
		{workers: 4, jobs: 10, wantMin: 4, wantMax: 4},
		{workers: 4, jobs: 2, wantMin: 2, wantMax: 2},
		{workers: 1, jobs: 100, wantMin: 1, wantMax: 1},
		{workers: 7, jobs: 7, wantMin: 7, wantMax: 7},
		// jobs == 0 floors at 1 so pool loops still terminate.
		{workers: 4, jobs: 0, wantMin: 1, wantMax: 1},
		{workers: -3, jobs: 0, wantMin: 1, wantMax: 1},
		// workers <= 0 resolves to GOMAXPROCS, then caps at jobs.
		{workers: 0, jobs: 1, wantMin: 1, wantMax: 1},
		{workers: -1, jobs: 2, wantMin: 1, wantMax: 2},
		{workers: 0, jobs: 1 << 30, wantMin: 1, wantMax: 1 << 30},
	}
	for _, c := range cases {
		got := ClampWorkers(c.workers, c.jobs)
		if got < c.wantMin || got > c.wantMax {
			t.Errorf("ClampWorkers(%d, %d) = %d, want in [%d, %d]",
				c.workers, c.jobs, got, c.wantMin, c.wantMax)
		}
	}
}

// TestEnsureRowsGrowOnly is the regression test for the ensureRows thrash
// fix: alternating between graph sizes and lane widths must not re-pay the
// row-block allocation once the largest geometry has been served.
func TestEnsureRowsGrowOnly(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant builds allocate in assertions; grow-only holds for default builds")
	}
	s := &Scratch{}
	// Warm with the largest geometry: 64 lanes at the larger n.
	_ = s.ensureRows(1000, 64)
	sizes := []struct{ n, lanes int }{
		{1000, 1}, {500, 64}, {1000, 64}, {500, 1}, {7, 64}, {1000, 32},
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, sz := range sizes {
			rows := s.ensureRows(sz.n, sz.lanes)
			if len(rows) != sz.lanes || len(rows[0]) != sz.n {
				t.Fatalf("ensureRows(%d, %d): got %d rows of len %d", sz.n, sz.lanes, len(rows), len(rows[0]))
			}
		}
	})
	if allocs != 0 {
		t.Errorf("%.1f allocs per alternating ensureRows cycle, want 0 (grow-only)", allocs)
	}
	// Rows must be disjoint, correctly sized views.
	rows := s.ensureRows(100, 64)
	rows[0][99] = 7
	rows[1][0] = 9
	if rows[0][99] != 7 || rows[1][0] != 9 || &rows[0][99] == &rows[1][0] {
		t.Fatal("ensureRows rows alias each other")
	}
}

// TestParallelBFSZeroAllocs pins the parallel scalar kernels to zero
// steady-state allocations: the worker pool is persistent and dispatch is a
// channel send of a pre-existing pointer, so a warmed traversal allocates
// nothing no matter how many levels fan out.
func TestParallelBFSZeroAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("CSR invariant assertions allocate; zero-alloc holds for default builds")
	}
	g := bigParGraph(t, 3000, 53)
	n := g.NumNodes()
	dist := make([]int32, n)
	for _, e := range []Engine{TopDown, DirectionOpt} {
		t.Run(e.String(), func(t *testing.T) {
			s := NewScratch(n)
			BFSWith(g, 0, dist, e, 4, s) // warm pool, vis bitmap, worker queues
			src := 0
			allocs := testing.AllocsPerRun(30, func() {
				BFSWith(g, src%n, dist, e, 4, s)
				src++
			})
			if allocs != 0 {
				t.Errorf("engine %v: %.1f allocs per parallel BFS with warmed Scratch, want 0", e, allocs)
			}
		})
	}
}

// TestCoresUsedMetric asserts a parallel traversal reports cores_used > 1 in
// the kernel metrics — the property the CI multicore smoke checks end to end.
func TestCoresUsedMetric(t *testing.T) {
	g := bigParGraph(t, 4000, 61)
	n := g.NumNodes()
	dist := make([]int32, n)
	BFSWith(g, 0, dist, TopDown, 4, NewScratch(n))
	after := SnapshotMetrics()
	if after.TopDown.CoresUsed < 2 {
		t.Fatalf("parallel TopDown reported cores_used = %d, want > 1", after.TopDown.CoresUsed)
	}
}

// TestBitParallelSweepIgnoresPar pins that par never reaches the 64-lane
// kernel: a BitParallel64 sweep with par=4, on a graph whose frontiers are
// far above the parallel cutoffs, delivers the same rows and does the same
// per-kernel work as par=1, and every batch runs on one core.
func TestBitParallelSweepIgnoresPar(t *testing.T) {
	g := bigParGraph(t, 4000, 67)
	n := g.NumNodes()
	sources := make([]int, 130) // three batches, the last one partial
	for i := range sources {
		sources[i] = (i * 29) % n
	}
	sweep := func(par int) (map[int][]int32, MetricsSnapshot) {
		rows := make(map[int][]int32, len(sources))
		before := SnapshotMetrics()
		err := Sweep(context.Background(), g, sources, 1, BitParallel64, par, func(src int, dist []int32) {
			rows[src] = append([]int32(nil), dist...)
		})
		if err != nil {
			t.Fatal(err)
		}
		return rows, SnapshotMetrics().Sub(before)
	}
	rows1, work1 := sweep(1)
	rows4, work4 := sweep(4)
	for src, want := range rows1 {
		got := rows4[src]
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("src %d: par=4 dist[%d] = %d, par=1 gave %d", src, v, got[v], want[v])
			}
		}
	}
	w1, w4 := work1.BitParallel64, work4.BitParallel64
	if w1.Calls != w4.Calls || w1.Nodes != w4.Nodes || w1.Edges != w4.Edges {
		t.Fatalf("bitparallel64 work differs: par=1 calls/nodes/edges %d/%d/%d, par=4 %d/%d/%d",
			w1.Calls, w1.Nodes, w1.Edges, w4.Calls, w4.Nodes, w4.Edges)
	}
	if t1, t4 := work1.Total(), work4.Total(); t1.Calls != t4.Calls || t1.Edges != t4.Edges {
		t.Fatalf("total work differs: par=1 calls/edges %d/%d, par=4 %d/%d", t1.Calls, t1.Edges, t4.Calls, t4.Edges)
	}
	if cores := SnapshotMetrics().BitParallel64.CoresUsed; cores > 1 {
		t.Fatalf("bitparallel64 cores_used = %d, want <= 1 (batches run serially)", cores)
	}
}
