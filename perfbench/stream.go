package main

import (
	"time"

	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/serve"
)

// stream-1c: one monitor on a growing DBLP stream. Set-up ingests and seals
// the first 60%; the timed loop then writes the next slice, seals it, and
// queries the new window (latest-1, latest), so every query is on a cold
// window.
const (
	streamSetupShare = 0.6
	// streamSlices cuts the remaining 40% into this many writes, enough for
	// a minute of cold queries on a 2-CPU host.
	streamSlices = 256
	// streamReplays bounds how many traced queries get their rows replayed.
	streamReplays = 8
	// replaySources is how many of a query's candidates a replay re-runs.
	replaySources = 16
)

var streamQuery = serve.QueryRequest{Tenant: "monitor", Selector: "MMSD", M: 100, L: 10, K: 10, Seed: 7, Paired: "full"}

type streamState struct {
	s      *served
	stream []graph.TimedEdge
	// counts[e] is the number of stream edges sealed into epoch e.
	counts []int
	slice  int
}

func setupStream(rc *runConfig, tr *tracer) (*streamState, error) {
	ev, err := datagen.DBLP(datagen.Config{Seed: rc.Seed, Scale: rc.Scale})
	if err != nil {
		return nil, err
	}
	stream := ev.Stream()
	c0 := int(streamSetupShare * float64(len(stream)))
	st := &streamState{s: newServed(servedConfig, rc, tr), stream: stream, counts: []int{0, c0},
		slice: (len(stream) - c0) / streamSlices}
	if st.slice < 1 {
		st.slice = 1
	}
	if _, err := st.s.write(stream[:c0]); err != nil {
		st.s.close()
		return nil, err
	}
	return st, nil
}

// loop runs the closed loop for d: write a slice, seal, query the new
// window. It stops early if the stream runs out.
func (st *streamState) loop(d time.Duration, oc *outcome) (qs []servedQuery, lat []int64, wall time.Duration, err error) {
	start := time.Now()
	for time.Since(start) < d {
		next := st.counts[len(st.counts)-1]
		if next >= len(st.stream) {
			break
		}
		end := min(next+st.slice, len(st.stream))
		wd, err := st.s.write(st.stream[next:end])
		if err != nil {
			return nil, nil, 0, err
		}
		oc.writeNS = append(oc.writeNS, wd.Nanoseconds())
		st.counts = append(st.counts, end)
		req := streamQuery
		req.T2 = len(st.counts) - 1
		req.T1 = req.T2 - 1
		q, qd := st.s.query(req)
		q.t1, q.t2 = req.T1, req.T2
		qs = append(qs, q)
		lat = append(lat, qd.Nanoseconds())
	}
	return qs, lat, time.Since(start), nil
}

// window returns the one-shot snapshot pair of a served window, built from
// the stream prefixes rather than the server's epoch store: G1 is padded to
// G2's node universe exactly as graph.Store.Window pads it.
func (st *streamState) window(t1, t2 int) (graph.SnapshotPair, error) {
	ev, err := graph.NewEvolving(st.stream[:st.counts[t2]])
	if err != nil {
		return graph.SnapshotPair{}, err
	}
	return graph.SnapshotPair{G1: ev.SnapshotPrefix(st.counts[t1]), G2: ev.SnapshotPrefix(st.counts[t2])}, nil
}

func runStream(rc *runConfig) (*outcome, error) {
	oc := &outcome{}
	if rc.Trace {
		oc.tr = newTracer()
	}
	st, err := setUp(rc, oc, func() (*streamState, error) { return setupStream(rc, oc.tr) },
		func(st *streamState) { st.s.close() })
	if err != nil {
		return nil, err
	}
	defer st.s.close()

	d := rc.Duration
	if rc.Trace {
		d /= 2
	}
	qs, lat, wall, err := st.loop(d, oc)
	if err != nil {
		return nil, err
	}
	oc.queryNS, oc.timedNS, oc.completed = lat, wall.Nanoseconds(), countOK(qs)
	oc.liveHeap = liveHeap()
	traced := 0
	if rc.Trace {
		tr := oc.tr
		tr.scrape = func() (map[string]float64, error) { return st.s.scrape(distSweepsSum, distSweeps, distCoalesced) }
		st.s.tracing.Store(true)
		if err := tr.begin(); err != nil {
			return nil, err
		}
		tq, tlat, _, err := st.loop(d, oc)
		if err != nil {
			return nil, err
		}
		if err := tr.end(); err != nil {
			return nil, err
		}
		st.s.tracing.Store(false)
		oc.tracedNS = tlat
		traced = len(tq)
		qs = append(qs, tq...)
		if err := st.replay(tr, tq); err != nil {
			return nil, err
		}
	}

	// Check every answer against the one-shot run of the same query on the
	// same snapshots, and the tenant's running total against the reports.
	opts, err := coreOptions(streamQuery)
	if err != nil {
		return nil, err
	}
	cold := map[string]int64{}
	spent := 0
	for i, q := range qs {
		oc.attempted++
		if q.err != nil {
			oc.failed++
			continue
		}
		pair, err := st.window(q.t1, q.t2)
		if err != nil {
			return nil, err
		}
		isTraced := i >= len(qs)-traced
		ref, err := oneShot(pair, opts, isTraced)
		if err != nil {
			return nil, err
		}
		if !q.matches(ref, spent) {
			oc.failed++
		}
		spent = q.tenantSpent
		if isTraced {
			oc.tr.budgetSum += int64(ref.budget.Total())
			oc.tr.rawPairs += ref.rawPairs
			if c, ok := cold[shapeKey(streamQuery)]; !ok || ref.selectionNS < c {
				cold[shapeKey(streamQuery)] = ref.selectionNS
			}
		}
	}
	if rc.Trace {
		oc.tr.countWarmHits(cold)
	}
	return oc, nil
}

// replay re-runs, after the traced phase, the window pinning and distance
// rows of the first traced queries, each with a span: graph.Store.Window on
// the query's window, and its first candidates' rows on the t2 snapshot
// through a Batcher configured like the server's and through a bare BFS.
func (st *streamState) replay(tr *tracer, qs []servedQuery) error {
	for i, q := range qs {
		if i == streamReplays {
			break
		}
		if q.err != nil {
			continue
		}
		t0 := time.Now()
		w, err := st.s.srv.Ingester().Store().Window(q.t1, q.t2)
		if err != nil {
			return err
		}
		tr.add("graph.Window", 0, 0, t0, time.Now(), nil)
		tr.replayRows(w.Pair.G2, [][]int{q.cands[:min(replaySources, len(q.cands))]}, true)
		w.Close()
	}
	return nil
}

func countOK(qs []servedQuery) int {
	n := 0
	for _, q := range qs {
		if q.err == nil {
			n++
		}
	}
	return n
}
