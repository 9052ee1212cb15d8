package main

import (
	"io"
	"math"
	"sort"
	"testing"
)

// testSizes shrinks every workload so each run takes about a second. The
// daemon prefix passes one checkpoint, so set-up still recovers a snapshot
// plus a WAL tail.
var testSizes = sizes{fbCoflows: 60, denseCoflows: 600, daemonPrefix: checkpointEvery + 76, daemonCoflows: 200, minPasses: 2}

func testSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func testRun(t *testing.T, sp *spec, workload string, traced, inject bool) result {
	t.Helper()
	o := options{workload: workload, seed: defaultSeed, trace: traced, injectBad: inject, out: t.TempDir(), size: testSizes}
	res, err := run(sp, o, io.Discard)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, traced, err)
	}
	return res
}

func TestSpecIsWellFormed(t *testing.T) {
	sp := testSpec(t)
	if err := checkSpec(sp); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, wl := range sp.Workloads {
		declared = append(declared, wl.Name)
	}
	var known []string
	for name := range workloads {
		known = append(known, name)
	}
	sort.Strings(declared)
	sort.Strings(known)
	if len(declared) != len(known) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark runs %v", declared, known)
	}
	for i := range known {
		if declared[i] != known[i] {
			t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark runs %v", declared, known)
		}
	}
}

// TestEveryDeclaredMetricEmitted runs every workload untraced and traced and
// checks the result carries exactly the declared metrics, each with its
// declared unit, and that the end-to-end values are positive and finite.
func TestEveryDeclaredMetricEmitted(t *testing.T) {
	sp := testSpec(t)
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			res := testRun(t, sp, name, traced, false)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			declared := sp.EndToEnd
			if traced {
				declared = sp.PerLayer
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: %d metrics, %d declared", name, traced, len(res.Metrics), len(declared))
			}
			for _, m := range declared {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s missing", name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s unit %q, declared %q", name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", name, traced, m.Name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestEveryLayerMetricMeasured checks that each declared per-layer metric is
// measured by at least one workload, so none is a constant 0.
func TestEveryLayerMetricMeasured(t *testing.T) {
	sp := testSpec(t)
	unmeasured := map[string]int{}
	for name := range workloads {
		for _, m := range testRun(t, sp, name, true, false).unmeasured {
			unmeasured[m]++
		}
	}
	for m, n := range unmeasured {
		if n == len(workloads) {
			t.Errorf("no workload measures %s", m)
		}
	}
}

// TestInjectedBadInputFails corrupts one Coflow of each workload and checks
// the run counts failed operations and fails its checks.
func TestInjectedBadInputFails(t *testing.T) {
	sp := testSpec(t)
	for name := range workloads {
		res := testRun(t, sp, name, true, true)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s with a bad input: correct=%v failed=%d", name, res.Correct, res.Failed)
		}
		if f := res.Metrics["bench.failed_frac"].Value; f <= 0 {
			t.Errorf("%s with a bad input: bench.failed_frac = %v", name, f)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1, 4, 2, 3, 9, 7, 8, 6, 10}, 2.75, 5.5, 8.25},
		{[]float64{1.5, 2.25, 10, 0.5, 7}, 1, 2.25, 8.5},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

// TestSelfTimesTelescope checks that the self times of a span tree add up to
// its root's duration.
func TestSelfTimesTelescope(t *testing.T) {
	l := &spanLog{}
	l.add("pass", -1, 0, 100)
	l.add("run", 0, 10, 40)
	l.add("next", 1, 20, 30)
	l.add("next", 1, 32, 35)
	l.add("setup", 0, 50, 60)
	var self int64
	for _, lt := range l.selfTimes() {
		self += int64(lt.Self)
		if lt.Name == "next" && (lt.Count != 2 || lt.Self != 13) {
			t.Errorf("next: %+v", lt)
		}
	}
	if self != 100 {
		t.Fatalf("self times sum to %d, root lasted 100", self)
	}
}
