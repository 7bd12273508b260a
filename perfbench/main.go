// Command perfbench is the repository benchmark. It drives the real layers
// (serve → graph → core → candidates → dist → sssp/dynsssp → prune → topk,
// with budget charging along the way) on three closed-loop workloads, checks
// the answers against independent one-shot computations, and prints one
// JSON result line.
//
//	perfbench --workload stream-1c --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reports the per-layer breakdown of a traced run and writes the recorded
// spans to --out. METRICS.md in this directory is the metric dictionary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(rc *runConfig) (*outcome, error){
	"stream-1c":    runStream,
	"warm-2c":      runWarm,
	"oneshot-200k": runOneshot,
}

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"stream-1c", "warm-2c", "oneshot-200k"}

// runConfig is one invocation's settings.
type runConfig struct {
	Workload string
	Seed     int64
	Duration time.Duration
	Trace    bool
	// Setups is how many times the set-up is repeated; setup_s is their
	// median and the last one's state is measured.
	Setups int
	// Scale multiplies each workload's dataset size (1 = the defined
	// workload; the self-test shrinks it).
	Scale float64
	// corrupt, when set, alters each served or computed report before it is
	// checked (the self-test uses it to prove the gate counts wrong answers).
	corrupt func(report []byte) []byte
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: stream-1c, warm-2c, oneshot-200k, or all of them in turn")
	seed := fs.Int64("seed", 1, "workload seed (inputs are a function of it)")
	seconds := fs.Int("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "traces"), "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	}
	_, ok := workloads[names[0]]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload %s or all, --seconds >= 1 and --trace 0|1\n", workloadOrder)
		return 2
	}
	for _, name := range names {
		if code := runWorkload(name, *seed, *seconds, *trace == 1, *out, stdout, stderr); code != 0 {
			return code
		}
	}
	return 0
}

// runWorkload runs one workload and prints its provenance, table and JSON
// result line.
func runWorkload(name string, seed int64, seconds int, trace bool, out string, stdout, stderr io.Writer) int {
	rc := &runConfig{
		Workload: name,
		Seed:     seed,
		Duration: time.Duration(seconds) * time.Second,
		Trace:    trace,
		Setups:   5,
		Scale:    1,
	}
	if rc.Trace {
		rc.Setups = 1 // setup_s is an end-to-end metric; the traced run skips its repeats
	}
	prov := newProvenance(rc)
	fmt.Fprintf(stdout, "provenance %s\n", mustJSON(prov))
	oc, err := workloads[name](rc)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", rc.Workload, err)
		return 1
	}
	res, layers := oc.result(rc)
	printTable(stdout, oc, res, layers, rc)
	if rc.Trace {
		path, err := oc.tr.writeFile(out, rc, prov, layers)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	}
	fmt.Fprintln(stdout, mustJSON(res))
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one workload run measured.
type outcome struct {
	// queryNS holds the untraced query latencies, tracedNS the traced ones
	// (trace runs split the timed phase into an untraced and a traced half).
	queryNS, tracedNS []int64
	writeNS           []int64
	setupNS           []int64
	// timedNS is the wall time of the untraced timed phase, in which
	// completed queries finished.
	timedNS   int64
	completed int
	attempted int
	failed    int
	liveHeap  uint64
	tr        *tracer
}

// setUp runs a workload's set-up rc.Setups times, timing each for
// setup_s, and returns the last one; each earlier one is released before
// the next starts.
func setUp[S any](rc *runConfig, oc *outcome, setup func() (S, error), release func(S)) (S, error) {
	var st S
	for i := 0; i < rc.Setups; i++ {
		if i > 0 {
			release(st)
		}
		start := time.Now()
		var err error
		if st, err = setup(); err != nil {
			return st, fmt.Errorf("setup: %w", err)
		}
		oc.setupNS = append(oc.setupNS, time.Since(start).Nanoseconds())
	}
	return st, nil
}

// result builds the JSON result line and, for traced runs, returns every
// per-layer metric the run measured.
func (oc *outcome) result(rc *runConfig) (result, map[string]float64) {
	res := result{
		Correct:   oc.failed == 0 && oc.attempted > 0,
		Attempted: oc.attempted,
		Failed:    oc.failed,
		Metrics:   map[string]metric{},
	}
	if !rc.Trace {
		res.Metrics["query_p50_ms"] = metric{median(oc.queryNS) / 1e6, "ms"}
		res.Metrics["query_p90_ms"] = metric{percentile(oc.queryNS, 0.9) / 1e6, "ms"}
		res.Metrics["throughput_qps"] = metric{float64(oc.completed) / (float64(oc.timedNS) / 1e9), "1/s"}
		res.Metrics["write_p50_ms"] = metric{median(oc.writeNS) / 1e6, "ms"}
		res.Metrics["setup_s"] = metric{median(oc.setupNS) / 1e9, "s"}
		res.Metrics["live_heap_mb"] = metric{float64(oc.liveHeap) / (1 << 20), "MiB"}
		return res, nil
	}
	layers := oc.tr.layerMetrics(oc)
	for name, d := range perLayer {
		res.Metrics[name] = metric{layers[name], d.unit}
	}
	return res, layers
}

// printTable writes the human-readable report: every metric by name and
// unit with its sample count, including the ones the JSON line leaves out.
func printTable(w io.Writer, oc *outcome, res result, layers map[string]float64, rc *runConfig) {
	share := 0.0
	if oc.attempted > 0 {
		share = float64(oc.failed) / float64(oc.attempted)
	}
	fmt.Fprintf(w, "workload %s seed %d: %d queries attempted, %d failed, failed_share %.4f ratio\n",
		rc.Workload, rc.Seed, oc.attempted, oc.failed, share)
	if !rc.Trace {
		fmt.Fprintf(w, "samples: %d queries, %d writes, %d setups\n", len(oc.queryNS), len(oc.writeNS), len(oc.setupNS))
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %16.6f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if rc.Trace {
		oc.tr.printExtra(w, layers)
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps are marshalled
	}
	return string(b)
}
