package prune

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// kthLargest computes the reference threshold: the kth largest of deltas,
// or 0 when fewer than k were offered.
func kthLargest(deltas []int32, k int) int32 {
	if len(deltas) < k {
		return 0
	}
	s := append([]int32(nil), deltas...)
	sort.Slice(s, func(i, j int) bool { return s[i] > s[j] })
	return s[k-1]
}

func TestThresholdMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(8)
		n := rng.Intn(40)
		th := NewThreshold(k)
		var offered []int32
		for i := 0; i < n; i++ {
			d := int32(rng.Intn(12))
			offered = append(offered, d)
			th.Offer(d)
			if got, want := th.Load(), kthLargest(offered, k); got != want {
				t.Fatalf("trial %d after %d offers: Load=%d want %d (k=%d offered=%v)",
					trial, i+1, got, want, k, offered)
			}
		}
	}
}

func TestThresholdMonotoneUnderConcurrency(t *testing.T) {
	const k, workers, perWorker = 5, 8, 500
	th := NewThreshold(k)
	all := make([][]int32, workers)
	rng := rand.New(rand.NewSource(11))
	for w := range all {
		for i := 0; i < perWorker; i++ {
			all[w] = append(all[w], int32(rng.Intn(100)))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(deltas []int32) {
			defer wg.Done()
			prev := int32(0)
			for _, d := range deltas {
				th.Offer(d)
				cur := th.Load()
				if cur < prev {
					t.Errorf("threshold decreased: %d -> %d", prev, cur)
					return
				}
				prev = cur
			}
		}(all[w])
	}
	wg.Wait()
	var flat []int32
	for _, d := range all {
		flat = append(flat, d...)
	}
	if got, want := th.Load(), kthLargest(flat, k); got != want {
		t.Fatalf("final threshold %d, reference %d", got, want)
	}
}

func TestSeedRaisesButNeverLowers(t *testing.T) {
	th := NewThreshold(3)
	th.Seed(4)
	if got := th.Load(); got != 4 {
		t.Fatalf("after Seed(4): %d", got)
	}
	th.Seed(2) // lower seed must not regress
	if got := th.Load(); got != 4 {
		t.Fatalf("after Seed(2): %d", got)
	}
	th.Seed(0) // non-positive ignored
	th.Seed(-3)
	if got := th.Load(); got != 4 {
		t.Fatalf("after non-positive seeds: %d", got)
	}
	// Offers below the seed never lower it; enough above it take over.
	for _, d := range []int32{1, 1, 1} {
		th.Offer(d)
	}
	if got := th.Load(); got != 4 {
		t.Fatalf("low offers lowered seed: %d", got)
	}
	for _, d := range []int32{9, 8, 7} {
		th.Offer(d)
	}
	if got := th.Load(); got != 7 {
		t.Fatalf("after high offers: %d want 7", got)
	}
}

func TestNewThresholdPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewThreshold(0) did not panic")
		}
	}()
	NewThreshold(0)
}

// TestThresholdHugeK pins that k is not a reservation: a client-chosen k far
// above any pair count must neither allocate k slots nor change semantics.
func TestThresholdHugeK(t *testing.T) {
	th := NewThreshold(1 << 30)
	for _, d := range []int32{5, 3, 9} {
		th.Offer(d)
	}
	if got := th.Load(); got != 0 {
		t.Fatalf("threshold rose to %d with 3 of 2^30 offers", got)
	}
	if c := cap(th.heap); c > 1024 {
		t.Fatalf("heap reserved %d slots up front", c)
	}
}
