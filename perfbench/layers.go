package main

import (
	"fmt"
	"io"
	"sort"
)

// layerDef describes one per-layer metric of the traced run.
type layerDef struct {
	unit string
	// all marks the metrics measured on every workload; those are the
	// per_layer metrics of BENCHMARK.json. The others exist only where the
	// workload exercises their layer and are printed and written to the
	// span file.
	all bool
}

var layerDefs = map[string]layerDef{
	"candidates.select_ns":           {"ns", true},
	"candidates.warm_hit_share":      {"ratio", false},
	"core.extraction_ns":             {"ns", true},
	"core.unattributed_ns":           {"ns", true},
	"core.session_ns":                {"ns", false},
	"topk.sortcut_ns":                {"ns", true},
	"topk.pairs_sorted":              {"count", true},
	"sssp.row_ns":                    {"ns", true},
	"sssp.ns_per_edge":               {"ns", true},
	"sssp.edges_per_query":           {"count", true},
	"sssp.nodes_per_query":           {"count", true},
	"sssp.batch_fill":                {"ratio", false},
	"dynsssp.repair_edges_per_query": {"count", false},
	"prune.candidates_skipped":       {"count", true},
	"prune.cutoffs":                  {"count", true},
	"prune.edges_skipped_share":      {"ratio", true},
	"budget.sssp_per_query":          {"count", true},
	"go.alloc_bytes_per_query":       {"bytes", true},
	"go.gc_cycles_per_query":         {"count", true},
	"serve.http_overhead_ns":         {"ns", false},
	"serve.self_ns":                  {"ns", false},
	"serve.response_bytes":           {"bytes", false},
	"graph.ingest_ns":                {"ns", false},
	"graph.seal_ns":                  {"ns", false},
	"graph.window_ns":                {"ns", false},
	"dist.row_ns":                    {"ns", false},
	"dist.sources_per_sweep":         {"count", false},
	"dist.coalesced_share":           {"ratio", false},
	"trace.wall_ns":                  {"ns", false},
	"trace.self_sum_ns":              {"ns", false},
	"trace.untraced_p50_ms":          {"ms", false},
	"trace.query_p50_ms":             {"ms", true},
	"trace.overhead_ms":              {"ms", true},
}

// perLayer is the subset reported in the JSON result line.
var perLayer = func() map[string]layerDef {
	m := map[string]layerDef{}
	for n, d := range layerDefs {
		if d.all {
			m[n] = d
		}
	}
	return m
}()

// layerMetrics derives the per-layer metrics from the traced phase. Work
// counters are run totals divided by traced queries: exact per query on the
// serial workloads, exact in sum on warm-2c, where nothing else runs in the
// process while the clients do.
//
// The self times partition each query's wall time:
//
//	served:  wall = serve.http_overhead + serve.self + Σphases + core.unattributed
//	oneshot: wall = core.session + Σphases + core.unattributed
//
// where Σphases = candidates.select + core.extraction + topk.sortcut, read
// from the core flight record of each query.
func (t *tracer) layerMetrics(oc *outcome) map[string]float64 {
	m := map[string]float64{}
	queries := t.named("query")
	q := float64(len(queries))
	if q == 0 {
		return m
	}
	var wall int64
	for _, s := range queries {
		wall += s.dur()
	}
	var sel, ext, cut, total int64
	for _, r := range t.flight {
		sel += r.Phases.Selection
		ext += r.Phases.Extraction
		cut += r.Phases.SortCut
		total += r.Phases.Total
	}
	m["candidates.select_ns"] = float64(sel) / q
	m["core.extraction_ns"] = float64(ext) / q
	m["topk.sortcut_ns"] = float64(cut) / q
	m["core.unattributed_ns"] = float64(total-sel-ext-cut) / q
	self := []string{"candidates.select_ns", "core.extraction_ns", "topk.sortcut_ns", "core.unattributed_ns"}
	if calls := t.named("serve.Query"); len(calls) > 0 {
		var inQuery, bytes int64
		for _, s := range calls {
			inQuery += s.dur()
		}
		for _, s := range queries {
			bytes += int64(s.Attrs["response_bytes"].(int))
		}
		m["serve.http_overhead_ns"] = float64(wall-inQuery) / q
		m["serve.self_ns"] = float64(inQuery-total) / q
		m["serve.response_bytes"] = float64(bytes) / q
		self = append(self, "serve.http_overhead_ns", "serve.self_ns")
	} else {
		m["core.session_ns"] = float64(wall-total) / q
		self = append(self, "core.session_ns")
	}
	m["trace.wall_ns"] = float64(wall) / q
	for _, n := range self {
		m["trace.self_sum_ns"] += m[n]
	}

	k := t.after.kernels.Sub(t.before.kernels)
	all := k.Total()
	m["sssp.edges_per_query"] = float64(all.Edges-k.Repair.Edges) / q
	m["sssp.nodes_per_query"] = float64(all.Nodes-k.Repair.Nodes) / q
	lanes := k.BitParallel64.Calls*64 + k.BitParallel256.Calls*256 + k.BitParallel512.Calls*512
	if lanes > 0 {
		m["sssp.batch_fill"] = float64(k.BitParallel64.Sources+k.BitParallel256.Sources+k.BitParallel512.Sources) / float64(lanes)
	}
	if k.Repair.Calls > 0 {
		m["dynsssp.repair_edges_per_query"] = float64(k.Repair.Edges) / q
	}
	pw := t.after.pruned.Sub(t.before.pruned)
	m["prune.cutoffs"] = float64(pw.Cutoffs) / q
	m["prune.candidates_skipped"] = float64(t.after.skipped-t.before.skipped) / q
	if pw.Edges+all.Edges > 0 {
		m["prune.edges_skipped_share"] = float64(pw.Edges) / float64(pw.Edges+all.Edges)
	}
	m["budget.sssp_per_query"] = float64(t.budgetSum) / q
	m["topk.pairs_sorted"] = float64(t.rawPairs) / q
	m["go.alloc_bytes_per_query"] = float64(t.after.allocBytes-t.before.allocBytes) / q
	m["go.gc_cycles_per_query"] = float64(t.after.gcCycles-t.before.gcCycles) / q
	if t.scrape != nil {
		m["candidates.warm_hit_share"] = float64(t.warmHits) / q
		sum := t.after.dist[distSweepsSum] - t.before.dist[distSweepsSum]
		if n := t.after.dist[distSweeps] - t.before.dist[distSweeps]; n > 0 {
			m["dist.sources_per_sweep"] = sum / n
		}
		if sum > 0 {
			m["dist.coalesced_share"] = (t.after.dist[distCoalesced] - t.before.dist[distCoalesced]) / sum
		}
	}

	bare := t.named("dist.BFS.DistancesInto")
	m["sssp.row_ns"] = median(durations(bare))
	if t.bareEdges > 0 {
		var ns int64
		for _, s := range bare {
			ns += s.dur()
		}
		m["sssp.ns_per_edge"] = float64(ns) / float64(t.bareEdges)
	}
	for name, span := range map[string]string{
		"dist.row_ns":     "dist.Batcher.DistancesInto",
		"graph.ingest_ns": "graph.IngestBatch",
		"graph.seal_ns":   "graph.Seal",
		"graph.window_ns": "graph.Window",
	} {
		if ds := durations(t.named(span)); len(ds) > 0 {
			m[name] = median(ds)
		}
	}
	m["trace.untraced_p50_ms"] = median(oc.queryNS) / 1e6
	m["trace.query_p50_ms"] = median(oc.tracedNS) / 1e6
	m["trace.overhead_ms"] = m["trace.query_p50_ms"] - m["trace.untraced_p50_ms"]
	return m
}

func durations(spans []span) []int64 {
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.dur()
	}
	return out
}

// printExtra prints the per-layer metrics the JSON line leaves out.
func (t *tracer) printExtra(w io.Writer, m map[string]float64) {
	names := make([]string, 0, len(m))
	for n := range m {
		if !layerDefs[n].all {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Fprintln(w, "workload-specific per-layer metrics:")
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %16.6f %s\n", n, m[n], layerDefs[n].unit)
	}
	fmt.Fprintf(w, "self times sum to %.0f ns of %.0f ns mean query wall time (%d traced queries, %d flight records)\n",
		m["trace.self_sum_ns"], m["trace.wall_ns"], len(t.named("query")), len(t.flight))
}
