package dist

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/sssp"
)

// TestBatcherRowsMatchUnbatched pins the batching invariant: rows delivered
// through a Batcher are bit-identical to direct queries, for every request
// shape (single requests, duplicate sources, bulk sweeps).
func TestBatcherRowsMatchUnbatched(t *testing.T) {
	g := randomGraph(t, 80, 7)
	src := NewBFS(g, sssp.Auto)
	b := NewBatcher(src, BatcherOptions{Immediate: true})
	n := g.NumNodes()

	want := make([]int32, n)
	got := make([]int32, n)
	for u := 0; u < n; u += 7 {
		src.DistancesInto(u, want)
		b.DistancesInto(u, got)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("batched row from %d differs", u)
		}
	}

	sources := []int{3, 11, 3, 40, 11} // duplicates share one lane
	direct := DistanceMatrix(src, sources, 2)
	batched := DistanceMatrix(b, sources, 2)
	if !reflect.DeepEqual(direct, batched) {
		t.Fatalf("batched distance matrix differs from direct")
	}
}

// TestBatcherCoalescesConcurrentRequests drives many goroutines through one
// window and asserts they shared sweeps: the sources_per_sweep histogram must
// record a multi-source flush, and every caller must still get its own
// correct row.
func TestBatcherCoalescesConcurrentRequests(t *testing.T) {
	g := randomGraph(t, 80, 9)
	src := NewBFS(g, sssp.Auto)
	b := NewBatcher(src, BatcherOptions{Window: 50 * time.Millisecond})
	n := g.NumNodes()

	before := sourcesPerSweep.Count()
	const callers = 8
	rows := make([][]int32, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows[i] = make([]int32, n)
			b.DistancesInto(i*5, rows[i])
		}()
	}
	wg.Wait()

	want := make([]int32, n)
	for i := 0; i < callers; i++ {
		src.DistancesInto(i*5, want)
		if !reflect.DeepEqual(want, rows[i]) {
			t.Fatalf("caller %d got a wrong row", i)
		}
	}
	flushes := sourcesPerSweep.Count() - before
	if flushes < 1 {
		t.Fatalf("no batched sweep recorded")
	}
	// All 8 requests landed inside one 50ms window, so at least one flush
	// carried more than one source (they cannot all have flushed alone:
	// 8 flushes of 1 source each would need 8 separate windows).
	if flushes >= callers {
		t.Fatalf("requests did not coalesce: %d flushes for %d concurrent requests", flushes, callers)
	}
}

// TestBatcherFullBatchFlushesEarly pins that a batch reaching MaxBatch sweeps
// immediately instead of waiting out the window: with a window far longer
// than the test timeout would tolerate, a bulk sweep of exactly MaxBatch
// sources must complete promptly.
func TestBatcherFullBatchFlushesEarly(t *testing.T) {
	g := randomGraph(t, 60, 11)
	src := NewBFS(g, sssp.Auto)
	b := NewBatcher(src, BatcherOptions{Window: time.Hour, MaxBatch: 4})

	sources := []int{1, 2, 3, 4}
	done := make(chan [][]int32, 1)
	go func() { done <- DistanceMatrix(b, sources, 1) }()
	select {
	case rows := <-done:
		want := DistanceMatrix(src, sources, 1)
		if !reflect.DeepEqual(want, rows) {
			t.Fatalf("full-batch rows differ from direct")
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("full batch did not flush before the window expired")
	}
}

// TestBatcherCancellation pins the withdrawal contract: a caller whose ctx
// dies before the window flushes returns promptly with ctx's error, its dst
// is never written afterwards, and the batcher remains usable.
func TestBatcherCancellation(t *testing.T) {
	g := randomGraph(t, 60, 13)
	src := NewBFS(g, sssp.Auto)
	b := NewBatcher(src, BatcherOptions{Window: time.Hour})
	n := g.NumNodes()

	ctx, cancel := context.WithCancel(context.Background())
	dst := make([]int32, n)
	errc := make(chan error, 1)
	go func() { errc <- b.DistancesIntoCtx(ctx, 5, dst) }()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("canceled request did not return")
	}
	for _, v := range dst {
		if v != 0 {
			t.Fatalf("withdrawn request's dst was written")
		}
	}

	// The batcher still serves after a canceled window (the abandoned batch
	// flushes on its own time; a fresh immediate-ish request must not hang on
	// its corpse). Use a fresh batcher to keep the hour-long timer out of the
	// test's way.
	b2 := NewBatcher(src, BatcherOptions{Immediate: true})
	want := make([]int32, n)
	got := make([]int32, n)
	src.DistancesInto(5, want)
	b2.DistancesInto(5, got)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("post-cancel batcher returned a wrong row")
	}
}

// TestBatcherSeesThroughToGraph pins Unwrap integration: structural
// consumers must find the underlying *graph.Graph behind a Batcher.
func TestBatcherSeesThroughToGraph(t *testing.T) {
	g := randomGraph(t, 30, 17)
	b := NewBatcher(NewBFS(g, sssp.Auto), BatcherOptions{Immediate: true})
	got, ok := UnweightedGraph(b)
	if !ok || got != g {
		t.Fatalf("UnweightedGraph did not unwrap the batcher")
	}
}

// TestBatcherIncrementalPairedDelegates pins that a batched pair still
// supports incremental paired mode (run on the wrapped BFS sources)
// and produces rows identical to the full mode.
func TestBatcherIncrementalPairedDelegates(t *testing.T) {
	g1, g2 := evolvedPair(t, 70, 19)
	p := Pair{
		S1: NewBatcher(NewBFS(g1, sssp.Auto), BatcherOptions{Immediate: true}),
		S2: NewBatcher(NewBFS(g2, sssp.Auto), BatcherOptions{Immediate: true}),
	}
	eng := NewPaired(p, PairedIncremental)
	if eng.Mode() != PairedIncremental {
		t.Fatalf("batched pair lost the incremental capability")
	}
	n := g1.NumNodes()
	sess := eng.NewWorker()
	d1 := make([]int32, n)
	d2 := make([]int32, n)
	w1 := make([]int32, n)
	w2 := make([]int32, n)
	full := NewPaired(Pair{S1: NewBFS(g1, sssp.Auto), S2: NewBFS(g2, sssp.Auto)}, PairedFull).NewWorker()
	for _, u := range []int{0, 7, 33} {
		sess.Rows(u, d1, d2, nil)
		full.Rows(u, w1, w2, nil)
		if !reflect.DeepEqual(d1, w1) || !reflect.DeepEqual(d2, w2) {
			t.Fatalf("incremental-through-batcher rows differ at source %d", u)
		}
	}
}
