package main

import (
	"runtime"
	"time"

	"repro/internal/budget"
	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sssp"
)

// oneshot-200k: the convpairs path, core.TopK with a throwaway session, on
// a DBLP graph of 200,000 nodes split 80/100, with a fresh query seed each
// time. No serve, HTTP, Batcher or warm cache is involved.
//
// The graph is one fixed dataset, like the paper's DBLP snapshot; the
// workload seed drives the query seeds. Across generator seeds the query
// time on this size ranges over 2x (it follows how many positive-Δ pairs
// the extraction collects), which would swamp any effect worth measuring.
const (
	oneshotNodes     = 200000
	oneshotGraphSeed = 1
	oneshotSplit     = 0.8
	// oneshotChecked is how many of the run's first queries are checked
	// against a reference computed with other kernels; the rest are checked
	// against the budget invariant only.
	oneshotChecked = 1
)

// oneshotQuery keeps what the checks need of a query, not its Result: the
// result's pair slice pins the whole raw-pair array, which would inflate
// live_heap_mb with garbage no caller keeps.
type oneshotQuery struct {
	opts   core.Options
	report []byte
	budget budget.Report
	cands  []int
	pairs  int
	err    error
}

func oneshotOptions(rc *runConfig, i int) (core.Options, error) {
	sel, err := candidates.ByName("MMSD")
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{Selector: sel, M: 100, L: 10, K: 10, Seed: rc.Seed*1_000_003 + int64(i),
		Workers: runtime.NumCPU()}, nil
}

func runOneshot(rc *runConfig) (*outcome, error) {
	oc := &outcome{}
	if rc.Trace {
		oc.tr = newTracer()
	}
	pair, err := setUp(rc, oc, func() (graph.SnapshotPair, error) {
		ev, err := datagen.DBLP(datagen.Config{Seed: oneshotGraphSeed, Scale: oneshotNodes / 18000.0 * rc.Scale})
		if err != nil {
			return graph.SnapshotPair{}, err
		}
		// The one-shot path's write is building the snapshot pair.
		start := time.Now()
		pair, err := ev.Pair(oneshotSplit, 1.0)
		oc.writeNS = append(oc.writeNS, time.Since(start).Nanoseconds())
		return pair, err
	}, func(graph.SnapshotPair) {})
	if err != nil {
		return nil, err
	}

	loop := func(d time.Duration, first int, traced bool) (qs []oneshotQuery, lat []int64, wall time.Duration, err error) {
		start := time.Now()
		for i := first; time.Since(start) < d; i++ {
			opts, err := oneshotOptions(rc, i)
			if err != nil {
				return nil, nil, 0, err
			}
			var ctr *obs.Trace
			if traced {
				ctr = obs.New("oneshot")
				opts.Trace = ctr
			}
			t0 := time.Now()
			res, qerr := core.TopK(pair, opts)
			t1 := time.Now()
			if traced && qerr == nil {
				oc.tr.add("query", 0, 0, t0, t1, nil)
				oc.tr.collectFlight()
				raw, err := rawPairsOf(ctr)
				if err != nil {
					return nil, nil, 0, err
				}
				oc.tr.rawPairs += raw
				oc.tr.budgetSum += int64(res.Budget.Total())
			}
			opts.Trace = nil
			q := oneshotQuery{opts: opts, err: qerr}
			if qerr == nil {
				q.report, q.budget, q.cands, q.pairs = reportJSON(res, opts.M), res.Budget, res.Candidates, len(res.Pairs)
			}
			qs = append(qs, q)
			lat = append(lat, t1.Sub(t0).Nanoseconds())
		}
		return qs, lat, time.Since(start), nil
	}

	d := rc.Duration
	if rc.Trace {
		d /= 2
	}
	qs, lat, wall, err := loop(d, 0, false)
	if err != nil {
		return nil, err
	}
	oc.queryNS, oc.timedNS = lat, wall.Nanoseconds()
	for _, q := range qs {
		if q.err == nil {
			oc.completed++
		}
	}
	oc.liveHeap = liveHeap()
	if rc.Trace {
		tr := oc.tr
		if err := tr.begin(); err != nil {
			return nil, err
		}
		tq, tlat, _, err := loop(d, len(qs), true)
		if err != nil {
			return nil, err
		}
		if err := tr.end(); err != nil {
			return nil, err
		}
		oc.tracedNS = tlat
		qs = append(qs, tq...)
		for _, q := range tq {
			if q.err == nil {
				tr.replayRows(pair.G2, [][]int{q.cands[:min(replaySources, len(q.cands))]}, false)
				break
			}
		}
	}

	// Every query's budget report must carry the 2m limit and stay within
	// it; the first ones must also equal, report and budget, a reference
	// computed with another kernel and the incremental paired mode, which
	// share no traversal code with the measured path.
	for i, q := range qs {
		oc.attempted++
		if q.err != nil {
			oc.failed++
			continue
		}
		b := q.budget
		ok := b.Limit == 2*q.opts.M && b.Total() <= b.Limit && q.pairs <= q.opts.K
		if i < oneshotChecked {
			got := q.report
			if rc.corrupt != nil {
				got = rc.corrupt(got)
			}
			opts := q.opts
			opts.Engine, opts.PairedMode = sssp.TopDown, dist.PairedIncremental
			ref, err := oneShot(pair, opts, false)
			if err != nil {
				return nil, err
			}
			ok = ok && string(got) == string(ref.report) && b == ref.budget
		}
		if !ok {
			oc.failed++
		}
	}
	return oc, nil
}
