package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"

	"repro/internal/budget"
	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/export"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve"
)

// reference is the one-shot answer a query must equal, computed outside the
// timed phase and outside set-up.
type reference struct {
	// report is the canonical run report as compact JSON: what a one-shot
	// `convpairs -json` run prints for the same snapshots and options.
	report []byte
	budget budget.Report
	// selectionNS is the cold selection time, against which a served
	// query's selection is classified as a warm-cache hit.
	selectionNS int64
	// rawPairs is the number of pairs the one-shot run's sort-cut ordered
	// (read from its core trace; traced runs only).
	rawPairs int64
}

// oneShot runs core.TopK, the one-shot path, and returns its report.
func oneShot(pair graph.SnapshotPair, opts core.Options, traced bool) (reference, error) {
	var tr *obs.Trace
	if traced {
		tr = obs.New("reference")
		opts.Trace = tr
	}
	res, err := core.TopK(pair, opts)
	if err != nil {
		return reference{}, err
	}
	ref := reference{
		report:      reportJSON(res, opts.M),
		budget:      res.Budget,
		selectionNS: res.Phases.Selection,
	}
	if traced {
		ref.rawPairs, err = rawPairsOf(tr)
	}
	return ref, err
}

func reportJSON(res *core.Result, m int) []byte {
	rep := export.NewReport(res.SelectorName, m, res.Budget.Total(), res.Budget.Limit, res.Candidates, res.Pairs)
	b, err := json.Marshal(rep)
	if err != nil {
		panic(err) // export.Report holds only ints, strings and slices of them
	}
	return b
}

// matches reports whether a served answer equals the reference: the
// compacted served report byte for byte (compared by digest), and the
// tenant's running total grown by exactly the reference's spending.
func (q servedQuery) matches(ref reference, prevSpent int) bool {
	return q.digest == sha256.Sum256(ref.report) && q.tenantSpent == prevSpent+ref.budget.Total()
}

// candidatesOf decodes the candidate set of a report.
func candidatesOf(report []byte) []int {
	var rep export.Report
	if err := json.Unmarshal(report, &rep); err != nil {
		return nil
	}
	return rep.Candidates
}

// coreOptions translates a served query into the core options serve builds
// for it (workers and kernel at their defaults, as in servedConfig).
func coreOptions(req serve.QueryRequest) (core.Options, error) {
	sel, err := candidates.ByName(req.Selector)
	if err != nil {
		return core.Options{}, err
	}
	mode, err := dist.ParsePairedMode(req.Paired)
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{Selector: sel, M: req.M, L: req.L, K: req.K, MinDelta: req.MinDelta,
		Seed: req.Seed, PairedMode: mode}, nil
}

// shapeKey names a query shape the way a core flight-record fingerprint
// does, keeping only the fields that determine the result.
func shapeKey(req serve.QueryRequest) string {
	return fmt.Sprintf("selector=%s m=%d k=%d delta=%d seed=%d paired=%s",
		req.Selector, req.M, req.K, req.MinDelta, req.Seed, req.Paired)
}

// fingerprintShape reduces a flight-record fingerprint to its shapeKey.
func fingerprintShape(fp string) string {
	keep := map[string]bool{"selector": true, "m": true, "k": true, "delta": true, "seed": true, "paired": true}
	var out []string
	for _, f := range strings.Fields(fp) {
		if k, _, ok := strings.Cut(f, "="); ok && keep[k] {
			out = append(out, f)
		}
	}
	return strings.Join(out, " ")
}

// countWarmHits counts the traced queries whose selection took under a
// tenth of the cold selection of the same shape: a warm-cache hit restores
// memoized rows in microseconds where a cold selection runs 2l traversals.
func (t *tracer) countWarmHits(coldNS map[string]int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range t.flight {
		if cold, ok := coldNS[fingerprintShape(r.Fingerprint)]; ok && r.Phases.Selection*10 < cold {
			t.warmHits++
		}
	}
}

// liveHeap forces two collections, the second dropping what sync.Pool
// victim caches kept through the first, and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
