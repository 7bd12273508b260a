package core

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/candidates"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/sssp"
)

// batcherSources reads the total number of sources the process's Batchers
// have swept, from the dist.sources_per_sweep histogram's sum.
func batcherSources(t *testing.T) int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		var n int64
		if _, err := fmt.Sscanf(line, "dist.sources_per_sweep_sum %d", &n); err == nil {
			return n
		}
	}
	return 0
}

// workSignature renders the deterministic part of a kernel-metrics delta:
// calls, sources, nodes and edges per kernel that ran, then the pruned-work
// counters (cutoffs, nodes, edges, levels). High-water marks and core counts
// are left out; they are not work.
func workSignature(k sssp.MetricsSnapshot, p sssp.PrunedWork) string {
	var b strings.Builder
	for _, kc := range []struct {
		name string
		c    sssp.KernelCounters
	}{
		{"td", k.TopDown}, {"do", k.DirectionOpt}, {"bp64", k.BitParallel64},
		{"dij", k.Dijkstra}, {"repair", k.Repair}, {"pruned", k.PrunedBFS},
	} {
		if kc.c.Calls != 0 {
			fmt.Fprintf(&b, "%s=%d/%d/%d/%d ", kc.name, kc.c.Calls, kc.c.Sources, kc.c.Nodes, kc.c.Edges)
		}
	}
	fmt.Fprintf(&b, "cut=%d/%d/%d/%d", p.Cutoffs, p.Nodes, p.Edges, p.Levels)
	return b.String()
}

// TestRowRoutesKernelWork pins which kernel every extraction row runs on and
// where the Δ bound cuts it. One single-worker K query (pruned) and one δ
// query (never pruned) run in each paired mode, one-shot through TopK and
// through a session over Batcher-wrapped sources as the serve layer builds
// it. The per-kernel work each run adds to the sssp counters, and the number
// of rows the Batchers swept, must equal the recorded signature: a row that
// moves to another kernel, into or out of the Batcher, or loses its bound
// changes calls, sources, nodes, edges or the batched count. A deliberate
// kernel change re-records the table from the failure messages.
func TestRowRoutesKernelWork(t *testing.T) {
	sp := growingPair(t, 150, 31)
	// Recorded before the paired-row producer became one concrete type;
	// every row must keep that route.
	want := map[string]string{
		"oneshot/full/k":            "do=23/23/2899/13412 pruned=15/15/1225/2483 cut=15/770/1892/58 batched=0",
		"oneshot/full/delta":        "do=40/40/5420/24106 cut=0/0/0/0 batched=0",
		"oneshot/incremental/k":     "do=23/23/2899/13412 repair=15/15/328/722 cut=15/245/0/0 batched=0",
		"oneshot/incremental/delta": "do=24/24/3020/13899 repair=16/16/698/1306 cut=0/0/0/0 batched=0",
		"served/full/k":             "do=23/23/2899/13412 pruned=15/15/1225/2483 cut=15/770/1892/58 batched=23",
		"served/full/delta":         "do=40/40/5420/24106 cut=0/0/0/0 batched=40",
		"served/incremental/k":      "do=23/23/2899/13412 repair=15/15/328/722 cut=15/245/0/0 batched=8",
		"served/incremental/delta":  "do=24/24/3020/13899 repair=16/16/698/1306 cut=0/0/0/0 batched=8",
	}
	served := func() *Session {
		bopts := dist.BatcherOptions{Immediate: true, Workers: 1}
		sess, err := NewSessionSources(dist.Pair{
			S1: dist.NewBatcher(dist.NewBFSPar(sp.G1, sssp.Auto, 1), bopts),
			S2: dist.NewBatcher(dist.NewBFSPar(sp.G2, sssp.Auto, 1), bopts),
		})
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	for _, path := range []string{"oneshot", "served"} {
		for _, mode := range []dist.PairedMode{dist.PairedFull, dist.PairedIncremental} {
			for _, query := range []string{"k", "delta"} {
				opts := Options{Selector: candidates.MMSD(), M: 20, L: 4, Seed: 5,
					Workers: 1, Parallelism: 1, PairedMode: mode}
				if query == "k" {
					opts.K = 5
				} else {
					opts.MinDelta = 2
				}
				kBefore, pBefore, bBefore := sssp.SnapshotMetrics(), sssp.SnapshotPrunedWork(), batcherSources(t)
				var err error
				if path == "oneshot" {
					_, err = TopK(sp, opts)
				} else {
					_, err = served().TopK(context.Background(), opts)
				}
				if err != nil {
					t.Fatal(err)
				}
				got := fmt.Sprintf("%s batched=%d",
					workSignature(sssp.SnapshotMetrics().Sub(kBefore), sssp.SnapshotPrunedWork().Sub(pBefore)),
					batcherSources(t)-bBefore)
				name := fmt.Sprintf("%s/%s/%s", path, mode, query)
				if got != want[name] {
					t.Errorf("%s: kernel work\n got  %q\n want %q", name, got, want[name])
				}
			}
		}
	}
}
