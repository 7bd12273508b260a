package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/serve"
)

// warm-2c: two dashboards on one warm Facebook window. Set-up seals the
// first 80% of the stream as epoch 1 and the rest as epoch 2, declares one
// unlimited tenant per client, and warms the window with one pass over the
// query shapes; each client then cycles through the shapes on window (1, 2).
//
// The graph is one fixed dataset and the workload seed drives the shapes'
// query seeds: with a single window per run, the graph-to-graph variation
// of the generator (about 20% in the median query) would swamp any effect
// worth measuring.
const (
	warmScale     = 2.0
	warmGraphSeed = 1
	warmSplit     = 0.8
	warmClients   = 2
)

// warmShapes is the query mix. Each shape's query seed is its Seed plus a
// function of the workload seed (the two MMSD top-10 shapes share theirs,
// and with it their warm selection).
var warmShapes = []serve.QueryRequest{
	{Selector: "MMSD", M: 100, L: 10, K: 10, Seed: 0, Paired: "full"},
	{Selector: "MMSD", M: 100, L: 10, K: 10, Seed: 0, Paired: "incremental"},
	{Selector: "MASD", M: 100, L: 10, K: 50, Seed: 1, Paired: "full"},
	{Selector: "SumDiff", M: 100, L: 10, K: 10, Seed: 2, Paired: "incremental"},
	{Selector: "MMSD", M: 100, L: 10, MinDelta: 2, Seed: 3, Paired: "full"},
}

// warmShape returns shape i of the mix for the run's seed.
func warmShape(rc *runConfig, i int) serve.QueryRequest {
	req := warmShapes[i]
	req.Seed += rc.Seed * int64(len(warmShapes))
	req.T1, req.T2 = 1, 2
	return req
}

type warmState struct {
	s    *served
	pair graph.SnapshotPair // the window's one-shot snapshots
	// warmup holds the warm-up pass's answers; they are checked too.
	warmup []servedQuery
}

func setupWarm(rc *runConfig, tr *tracer, oc *outcome) (st *warmState, err error) {
	ev, err := datagen.Facebook(datagen.Config{Seed: warmGraphSeed, Scale: warmScale * rc.Scale})
	if err != nil {
		return nil, err
	}
	stream := ev.Stream()
	c1 := int(warmSplit * float64(len(stream)))
	st = &warmState{s: newServed(servedConfig, rc, tr)}
	srv := st.s
	defer func() {
		if err != nil {
			srv.close()
		}
	}()
	if _, err := st.s.write(stream[:c1]); err != nil {
		return nil, err
	}
	// The write sample is the second one, the 20% slice: one per set-up.
	wd, err := st.s.write(stream[c1:])
	if err != nil {
		return nil, err
	}
	oc.writeNS = append(oc.writeNS, wd.Nanoseconds())
	for c := 0; c < warmClients; c++ {
		if err := st.s.declareTenant(clientTenant(c)); err != nil {
			return nil, err
		}
	}
	for i := range warmShapes {
		req := warmShape(rc, i)
		req.Tenant = "warmup"
		q, _ := st.s.query(req)
		if q.err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", shapeKey(req), q.err)
		}
		q.shape = i
		st.warmup = append(st.warmup, q)
	}
	st.pair = graph.SnapshotPair{G1: ev.SnapshotPrefix(c1), G2: ev.SnapshotPrefix(len(stream))}
	return st, nil
}

func clientTenant(c int) string { return fmt.Sprintf("client-%d", c) }

// loop runs the clients concurrently for d; client c starts at shape c.
// It returns each client's queries in order.
func (st *warmState) loop(rc *runConfig, d time.Duration) (per [warmClients][]servedQuery, lat []int64, wall time.Duration) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < warmClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; time.Since(start) < d; i++ {
				shape := i % len(warmShapes)
				req := warmShape(rc, shape)
				req.Tenant = clientTenant(c)
				q, qd := st.s.query(req)
				q.shape = shape
				per[c] = append(per[c], q)
				mu.Lock()
				lat = append(lat, qd.Nanoseconds())
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return per, lat, time.Since(start)
}

func runWarm(rc *runConfig) (*outcome, error) {
	oc := &outcome{}
	if rc.Trace {
		oc.tr = newTracer()
	}
	st, err := setUp(rc, oc, func() (*warmState, error) { return setupWarm(rc, oc.tr, oc) },
		func(st *warmState) { st.s.close() })
	if err != nil {
		return nil, err
	}
	defer st.s.close()

	d := rc.Duration
	if rc.Trace {
		d /= 2
	}
	per, lat, wall := st.loop(rc, d)
	oc.queryNS, oc.timedNS = lat, wall.Nanoseconds()
	for _, qs := range per {
		oc.completed += countOK(qs)
	}
	oc.liveHeap = liveHeap()
	var traced [warmClients][]servedQuery
	if rc.Trace {
		tr := oc.tr
		tr.scrape = func() (map[string]float64, error) { return st.s.scrape(distSweepsSum, distSweeps, distCoalesced) }
		st.s.tracing.Store(true)
		if err := tr.begin(); err != nil {
			return nil, err
		}
		traced, oc.tracedNS, _ = st.loop(rc, d)
		if err := tr.end(); err != nil {
			return nil, err
		}
		st.s.tracing.Store(false)
		if err := st.replay(tr, traced); err != nil {
			return nil, err
		}
	}

	// One reference per shape; every served answer of a shape, warm-up
	// included, must equal it, and each tenant's total must grow by exactly
	// its reports.
	refs := make([]reference, len(warmShapes))
	cold := map[string]int64{}
	for i := range warmShapes {
		req := warmShape(rc, i)
		opts, err := coreOptions(req)
		if err != nil {
			return nil, err
		}
		if refs[i], err = oneShot(st.pair, opts, rc.Trace); err != nil {
			return nil, err
		}
		cold[shapeKey(req)] = refs[i].selectionNS
	}
	tenants := [][]servedQuery{st.warmup}
	for c := range per {
		tenants = append(tenants, append(per[c], traced[c]...))
	}
	for c, qs := range tenants {
		spent := 0
		for i, q := range qs {
			oc.attempted++
			if q.err != nil {
				oc.failed++
				continue
			}
			ref := refs[q.shape]
			if !q.matches(ref, spent) {
				oc.failed++
			}
			spent = q.tenantSpent
			if c > 0 && i >= len(per[c-1]) {
				oc.tr.budgetSum += int64(ref.budget.Total())
				oc.tr.rawPairs += ref.rawPairs
			}
		}
	}
	if rc.Trace {
		oc.tr.countWarmHits(cold)
	}
	return oc, nil
}

// replay re-runs, after the traced phase, the pinning of window (1, 2) and
// the first candidates' rows of each client's first traced query, the
// clients' rows concurrently, so the Batcher replay can coalesce them.
func (st *warmState) replay(tr *tracer, traced [warmClients][]servedQuery) error {
	t0 := time.Now()
	w, err := st.s.srv.Ingester().Store().Window(1, 2)
	if err != nil {
		return err
	}
	tr.add("graph.Window", 0, 0, t0, time.Now(), nil)
	defer w.Close()
	var groups [][]int
	for _, qs := range traced {
		for _, q := range qs {
			if q.err == nil {
				groups = append(groups, q.cands[:min(replaySources, len(q.cands))])
				break
			}
		}
	}
	tr.replayRows(w.Pair.G2, groups, true)
	return nil
}
