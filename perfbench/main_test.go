package main

import (
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// smallRun is a quick run of a workload on a dataset a tenth of its size
// (a hundredth for oneshot-200k).
func smallRun(name string, trace bool) *runConfig {
	rc := &runConfig{Workload: name, Seed: 5, Duration: time.Second, Trace: trace, Setups: 1, Scale: 0.1}
	if name == "oneshot-200k" {
		rc.Scale = 0.01
	}
	return rc
}

// TestCorruptedReportIsCounted is the benchmark's self-test: a run whose
// first checked report is altered by one byte counts exactly that query as
// failed, and the run as incorrect, while an unaltered run fails nothing.
func TestCorruptedReportIsCounted(t *testing.T) {
	for name, drive := range workloads {
		t.Run(name, func(t *testing.T) {
			rc := smallRun(name, false)
			clean, err := drive(rc)
			if err != nil {
				t.Fatal(err)
			}
			if res, _ := clean.result(rc); clean.attempted == 0 || clean.failed != 0 || !res.Correct {
				t.Fatalf("clean run: %d attempted, %d failed, correct=%v", clean.attempted, clean.failed, res.Correct)
			}
			var altered atomic.Bool
			rc.corrupt = func(b []byte) []byte {
				if !altered.CompareAndSwap(false, true) {
					return b
				}
				out := append([]byte(nil), b...)
				out[len(out)/2] ^= 1
				return out
			}
			bad, err := drive(rc)
			if err != nil {
				t.Fatal(err)
			}
			res, _ := bad.result(rc)
			if bad.failed != 1 || res.Correct || res.Failed != 1 {
				t.Fatalf("corrupted run: %d of %d failed, correct=%v; want exactly 1 failed and correct=false",
					bad.failed, bad.attempted, res.Correct)
			}
		})
	}
}

// TestTracedSelfTimesAddUp checks that a traced run reports every per-layer
// metric of the JSON line and that the per-layer self times add up to the
// mean query wall time.
func TestTracedSelfTimesAddUp(t *testing.T) {
	for name, drive := range workloads {
		t.Run(name, func(t *testing.T) {
			rc := smallRun(name, true)
			oc, err := drive(rc)
			if err != nil {
				t.Fatal(err)
			}
			res, layers := oc.result(rc)
			if !res.Correct {
				t.Fatalf("traced run failed %d of %d queries", res.Failed, res.Attempted)
			}
			for n := range perLayer {
				if _, ok := layers[n]; !ok {
					t.Errorf("per-layer metric %s missing", n)
				}
			}
			wall, sum := layers["trace.wall_ns"], layers["trace.self_sum_ns"]
			if wall <= 0 || math.Abs(wall-sum) > 1e-6*wall {
				t.Fatalf("self times sum to %.0f ns, mean query wall time is %.0f ns", sum, wall)
			}
		})
	}
}
