// Command perfbench is the Sunflow repository benchmark. It drives the
// scheduler through the program's own public functions on one of the
// workloads BENCHMARK.json declares, checks that every output is correct,
// and prints each declared metric by name and unit. The last line of its standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation attached. With --trace 1 they are the per-layer ones: the
// run alternates untraced and traced passes, records spans around every
// layer call into an in-memory log written out at exit, and reads the
// obs.Observer and obs.DaemonMetrics the program already exposes. The
// traced dense48 run also drives sunflowd's /v1 handlers to measure the
// daemon layer.
//
// Every workload repeats a fixed, seed-determined pass until --seconds of
// passes have run (at least minPasses). Each pass has its own set-up phase,
// so set-up is measured as often as the timed phase, and each timed phase
// starts from a collected heap. Throughput and set-up figures are medians
// over passes.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload fb150 --seed 1 --seconds 20 --trace 0
//	perfbench --repeat 10 --workload fb150,dense48
//
// The repeat mode runs the benchmark once per seed in separate processes and
// prints each metric's median, quartiles and spread against its bound. The
// benchmark's own tests run with go test in this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"time"

	"sunflow/internal/procstat"
)

// Seeds. defaultSeed is what a bare run uses; heldOutSeed is kept out of all
// tuning, so a performance claim made on other seeds can be re-checked on it.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// sizes fixes each workload's pass, so runs of one seed do identical work.
type sizes struct {
	fbCoflows     int // fb150 Coflows per pass
	denseCoflows  int // dense48 Coflows per pass
	daemonPrefix  int // daemon phase: registrations recovered at set-up
	daemonCoflows int // daemon phase: registrations after recovery
	minPasses     int
}

var defaultSizes = sizes{
	fbCoflows:     1000,
	denseCoflows:  40000,
	daemonPrefix:  3000,
	daemonCoflows: 8000,
	minPasses:     3,
}

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	out       string // build and scratch directory
	work      string // per-run scratch directory under out
	injectBad bool   // corrupt one input to exercise failure accounting
	size      sizes
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options, *spanLog) ([]passResult, error){
	"fb150":   fb150,
	"dense48": dense48,
}

func main() {
	var o options
	var repeat int
	traced := 0
	flag.StringVar(&o.workload, "workload", "fb150", "workload: fb150 or dense48 (repeat mode: a comma-separated list)")
	flag.Int64Var(&o.seed, "seed", defaultSeed, fmt.Sprintf("input seed (keep %d held out of tuning)", heldOutSeed))
	flag.Float64Var(&o.seconds, "seconds", 0, "seconds of passes to measure (0: BENCHMARK.json run_seconds)")
	flag.IntVar(&traced, "trace", 0, "1: traced run reporting the per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for scratch files and span logs")
	flag.IntVar(&repeat, "repeat", 0, "run this many seeds, starting at --seed, and report spreads")
	flag.BoolVar(&o.injectBad, "inject-bad", false, "corrupt one input Coflow (the run must then fail its checks)")
	flag.Parse()
	if traced != 0 && traced != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", traced))
	}
	o.trace = traced == 1
	o.size = defaultSizes

	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	if o.seconds == 0 {
		o.seconds = float64(sp.RunSeconds)
	}
	if repeat > 0 {
		if err := repeatMode(sp, o, repeat, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	res, err := run(sp, o, os.Stdout)
	if err != nil {
		fatal(err)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// spec is the part of BENCHMARK.json the benchmark reads.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specEntry  `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchmark declaration: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return nil, fmt.Errorf("benchmark declaration %s: %w", path, err)
	}
	if err := checkSpec(&sp); err != nil {
		return nil, fmt.Errorf("benchmark declaration %s: %w", path, err)
	}
	return &sp, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// unmeasured lists the declared per-layer metrics of layers this
	// workload never calls; they read 0.
	unmeasured []string
}

// passResult is one pass of a workload: its set-up, its timed phase and
// what the checks found.
type passResult struct {
	traced    bool
	setup     float64   // seconds of the set-up phase
	wall      float64   // seconds of the timed phase
	ops       int       // Coflows completed in the timed phase
	admit     []float64 // µs per Coflow admission
	ccts      []float64 // simulated CCT per Coflow
	digest    string    // archive or engine digest
	attempted int
	failed    int
	bad       []string // correctness violations
	layerOnly bool     // contributes per-layer metrics only
	layer     map[string]float64
	counts    map[string]int // sample counts behind per-layer percentiles
}

// maxViolations caps the violations kept per pass; the rest are counted.
const maxViolations = 10

func (p *passResult) violation(format string, args ...any) {
	if len(p.bad) < maxViolations {
		p.bad = append(p.bad, fmt.Sprintf(format, args...))
	} else if len(p.bad) == maxViolations {
		p.bad = append(p.bad, "further violations omitted")
	}
}

// runPasses repeats pass until o.seconds have elapsed and at least
// o.size.minPasses passes ran. A traced run alternates untraced and traced
// passes, starting untraced.
func runPasses(o options, pass func(traced bool) (passResult, error)) ([]passResult, error) {
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	least := max(o.size.minPasses, 2)
	var out []passResult
	for i := 0; i < least || time.Now().Before(deadline); i++ {
		traced := o.trace && i%2 == 1
		p, err := pass(traced)
		if err != nil {
			return nil, err
		}
		p.traced = traced
		out = append(out, p)
	}
	return out, nil
}

// run executes one workload and builds its result, writing a human-readable
// report to w.
func run(sp *spec, o options, w io.Writer) (result, error) {
	runWorkload, ok := workloads[o.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", o.workload)
	}
	o.work = filepath.Join(o.out, "work", fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(o.work)
	var log *spanLog
	if o.trace {
		log = &spanLog{}
	}
	passes, err := runWorkload(o, log)
	if err != nil {
		return result{}, err
	}
	e2e, layer, counts := aggregate(passes)
	e2e["peak_rss_mb"] = procstat.PeakRSSMB()

	res := result{Correct: true, Metrics: map[string]metric{}}
	for i, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
		for _, b := range p.bad {
			res.Correct = false
			fmt.Fprintf(w, "CHECK FAILED (pass %d): %s\n", i, b)
		}
		if !p.layerOnly && p.digest != passes[0].digest {
			res.Correct = false
			fmt.Fprintf(w, "CHECK FAILED (pass %d): digest %s differs from pass 0's %s\n", i, p.digest, passes[0].digest)
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	layer["bench.failed_frac"] = float64(res.Failed) / float64(max(res.Attempted, 1))

	fmt.Fprintf(w, "workload %s seed %d: %d passes, digest %s\n", o.workload, o.seed, len(passes), passes[0].digest)
	for i, p := range passes {
		if p.layerOnly {
			fmt.Fprintf(w, "  daemon phase: recovery %.6fs, %d coflows in %.3fs, register p50 %.1fus p99 %.1fus, engine digest %s\n",
				p.setup, p.ops, p.wall, percentile(p.admit, 0.5), percentile(p.admit, 0.99), p.digest)
			continue
		}
		fmt.Fprintf(w, "  pass %d traced=%-5v setup %.6fs  timed %.3fs  %.1f coflows/s  admit p50 %.1fus p99 %.1fus\n",
			i, p.traced, p.setup, p.wall, float64(p.ops)/p.wall, percentile(p.admit, 0.5), percentile(p.admit, 0.99))
	}
	declared, values := sp.EndToEnd, e2e
	if o.trace {
		declared, values = sp.PerLayer, layer
	}
	emitted := map[string]bool{}
	for _, m := range declared {
		v, ok := values[m.Name]
		if !ok {
			if !o.trace {
				return result{}, fmt.Errorf("workload %s measured no %s", o.workload, m.Name)
			}
			res.unmeasured = append(res.unmeasured, m.Name)
		}
		emitted[m.Name] = true
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-28s %14.6g %-8s", m.Name, v, m.Unit)
		if n, counted := counts[m.Name]; counted {
			line += fmt.Sprintf(" n=%d", n)
		}
		if o.trace {
			line += " -> " + layerMoves[m.Name]
		}
		fmt.Fprintln(w, line)
	}
	if len(res.unmeasured) > 0 {
		fmt.Fprintf(w, "  not called by %s, so 0: %s\n", o.workload, strings.Join(res.unmeasured, " "))
	}
	for name := range values {
		if !emitted[name] {
			return result{}, fmt.Errorf("workload %s measured %s, which BENCHMARK.json does not declare", o.workload, name)
		}
	}
	if log != nil {
		fmt.Fprintln(w, "per-layer self time of the traced passes:")
		log.printSelfTimes(w)
		path := filepath.Join(o.out, "spans", o.workload+".jsonl")
		if err := log.write(path); err != nil {
			return result{}, err
		}
		fmt.Fprintf(w, "spans: %s (%d)\n", path, len(log.spans))
	}
	return res, nil
}

// aggregate folds passes into the end-to-end metrics (medians over untraced
// passes), the per-layer metrics (medians over traced passes) and the sample
// count behind each percentile.
func aggregate(passes []passResult) (e2e, layer map[string]float64, counts map[string]int) {
	var rate, setup, p50, p99, untracedWall, tracedWall []float64
	perLayer := map[string][]float64{}
	counts = map[string]int{}
	admitted := 0
	for _, p := range passes {
		if p.traced {
			if !p.layerOnly {
				tracedWall = append(tracedWall, p.wall)
			}
			for k, v := range p.layer {
				perLayer[k] = append(perLayer[k], v)
			}
			for k, n := range p.counts {
				counts[k] += n
			}
			continue
		}
		untracedWall = append(untracedWall, p.wall)
		rate = append(rate, float64(p.ops)/p.wall)
		setup = append(setup, p.setup)
		// Per-pass percentiles, then the median over passes: a burst of
		// machine noise then spoils one pass, not the whole tail.
		p50 = append(p50, percentile(p.admit, 0.50))
		p99 = append(p99, percentile(p.admit, 0.99))
		admitted += len(p.admit)
	}
	ccts := passes[0].ccts
	e2e = map[string]float64{
		"coflows_per_s": median(rate),
		"admit_p50_us":  median(p50),
		"admit_p99_us":  median(p99),
		"setup_s":       median(setup),
		"avg_cct_s":     mean(ccts),
		"p99_cct_s":     percentile(ccts, 0.99),
	}
	counts["admit_p50_us"], counts["admit_p99_us"] = admitted, admitted
	counts["p99_cct_s"] = len(ccts)
	layer = map[string]float64{}
	for k, vs := range perLayer {
		layer[k] = median(vs)
	}
	if len(tracedWall) > 0 {
		layer["bench.traced_slowdown"] = median(tracedWall) / median(untracedWall)
	}
	return e2e, layer, counts
}

// checkSpec validates the declaration's names and units.
func checkSpec(sp *spec) error {
	var errs []error
	seen := map[string]bool{}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, ms := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
		for _, m := range ms {
			if !nameRE.MatchString(m.Name) {
				errs = append(errs, fmt.Errorf("metric name %q", m.Name))
			}
			if seen[m.Name] {
				errs = append(errs, fmt.Errorf("metric %q declared twice", m.Name))
			}
			seen[m.Name] = true
			if !unitRE.MatchString(m.Unit) {
				errs = append(errs, fmt.Errorf("metric %q unit %q", m.Name, m.Unit))
			}
			if m.Better != "higher" && m.Better != "lower" {
				errs = append(errs, fmt.Errorf("metric %q better %q", m.Name, m.Better))
			}
		}
	}
	for _, m := range sp.PerLayer {
		if layerMoves[m.Name] == "" {
			errs = append(errs, fmt.Errorf("per-layer metric %q names no end-to-end metric it moves", m.Name))
		}
	}
	if len(layerMoves) != len(sp.PerLayer) {
		errs = append(errs, fmt.Errorf("%d per-layer metrics declared, %d described", len(sp.PerLayer), len(layerMoves)))
	}
	for _, wl := range sp.Workloads {
		if _, ok := workloads[wl.Name]; !ok {
			errs = append(errs, fmt.Errorf("workload %q", wl.Name))
		}
	}
	return errors.Join(errs...)
}
