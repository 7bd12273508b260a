package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/prune"
	"repro/internal/sssp"
)

// span is one timed region the benchmark recorded around a call it made
// into a layer's public function. Spans of one request share its id: the
// client's round trip is the root, the server-side span names it as parent.
type span struct {
	ID     int64          `json:"id"`
	Parent int64          `json:"parent,omitempty"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"` // offset from the trace epoch
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps a traced run's spans and counter readings in memory; they
// are written out once, when the run ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span
	// flight holds the core flight records of the traced phase: one per
	// core.Session.TopK call, with that query's own phase wall times.
	flight     []obs.RunRecord
	flightNext int64

	// before and after bracket the traced phase.
	before, after counters
	// scrape reads the Batcher's /metrics series (served workloads only).
	scrape func() (map[string]float64, error)

	// Per traced query, from the checks run after the timed phase.
	budgetSum int64
	rawPairs  int64
	warmHits  int
	// Row replays after the traced phase (see replayRows).
	bareEdges int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

// add records a span; id 0 assigns a fresh one.
func (t *tracer) add(name string, id, parent int64, start, end time.Time, attrs map[string]any) {
	if id == 0 {
		id = t.newID()
	}
	s := span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(), Attrs: attrs}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// named returns the recorded spans called name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// collectFlight moves flight records appended since the last call into the
// trace. Callers invoke it after each query, well before the recorder's
// ring of 256 could wrap.
func (t *tracer) collectFlight() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range obs.Flight.Last(64) {
		if r.Seq >= t.flightNext {
			t.flight = append(t.flight, r)
			t.flightNext = r.Seq + 1
		}
	}
}

// counters is one reading of the process-wide work counters.
type counters struct {
	kernels    sssp.MetricsSnapshot
	pruned     sssp.PrunedWork
	skipped    int64
	allocBytes uint64
	gcCycles   uint64
	dist       map[string]float64
}

const (
	distSweepsSum = "dist.sources_per_sweep_sum"
	distSweeps    = "dist.sources_per_sweep_count"
	distCoalesced = "dist.coalesced_requests"
)

func (t *tracer) read() (counters, error) {
	samples := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(samples)
	c := counters{
		kernels:    sssp.SnapshotMetrics(),
		pruned:     sssp.SnapshotPrunedWork(),
		skipped:    prune.CandidatesSkipped(),
		allocBytes: samples[0].Value.Uint64(),
		gcCycles:   samples[1].Value.Uint64(),
	}
	if t.scrape != nil {
		d, err := t.scrape()
		if err != nil {
			return c, err
		}
		c.dist = d
	}
	return c, nil
}

// begin marks the start of the traced phase.
func (t *tracer) begin() error {
	t.flightNext = obs.Flight.Total()
	c, err := t.read()
	t.before = c
	return err
}

// end marks the end of the traced phase.
func (t *tracer) end() error {
	t.collectFlight()
	c, err := t.read()
	t.after = c
	return err
}

// rawPairsOf reads the "raw-pairs" attribute of the extraction span of a
// core trace: the number of pairs the sort-cut ordered.
func rawPairsOf(tr *obs.Trace) (int64, error) {
	var buf strings.Builder
	if err := tr.WriteChrome(&buf); err != nil {
		return 0, err
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		return 0, err
	}
	for _, ev := range doc.TraceEvents {
		if v, ok := ev.Args["raw-pairs"].(float64); ok && ev.Name == "extraction" {
			return int64(v), nil
		}
	}
	return 0, fmt.Errorf("trace has no extraction span with raw-pairs")
}

// writeFile writes the spans, flight records and per-layer metrics of the
// run as one JSON document under dir, and returns its path.
func (t *tracer) writeFile(dir string, rc *runConfig, prov provenance, layers map[string]float64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", rc.Workload, rc.Seed))
	t.mu.Lock()
	doc := struct {
		Provenance provenance         `json:"provenance"`
		Layers     map[string]float64 `json:"layers"`
		Spans      []span             `json:"spans"`
		Flight     []obs.RunRecord    `json:"flight"`
	}{prov, layers, t.spans, t.flight}
	b, err := json.MarshalIndent(doc, "", " ")
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// replayRows re-runs distance rows on g from one goroutine per group, with
// a span around each row: first (when batched) through a dist.Batcher
// configured like the server's, then through a bare dist.BFS, whose kernel
// work it also counts. The difference of the two row times is the batching
// wait as seen from outside.
func (t *tracer) replayRows(g *graph.Graph, groups [][]int, batched bool) {
	run := func(name string, src dist.Source) {
		var wg sync.WaitGroup
		for _, grp := range groups {
			wg.Add(1)
			go func() {
				defer wg.Done()
				dst := make([]int32, g.NumNodes())
				for _, u := range grp {
					t0 := time.Now()
					src.DistancesInto(u, dst)
					t.add(name, 0, 0, t0, time.Now(), nil)
				}
			}()
		}
		wg.Wait()
	}
	cfg := servedConfig
	if batched {
		run("dist.Batcher.DistancesInto", dist.NewBatcher(dist.NewBFSPar(g, cfg.Engine, cfg.Parallelism),
			dist.BatcherOptions{Window: cfg.BatchWindow, Immediate: cfg.Immediate, Workers: cfg.Workers}))
	}
	before := sssp.SnapshotMetrics()
	run("dist.BFS.DistancesInto", dist.NewBFSPar(g, cfg.Engine, cfg.Parallelism))
	t.bareEdges += sssp.SnapshotMetrics().Sub(before).Total().Edges
}
