package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sunflow/internal/coflow"
	"sunflow/internal/obs"
	"sunflow/internal/sim"
	"sunflow/internal/trace"
	"sunflow/internal/workload"
)

// Fabric of every workload: 1 Gbps ports and δ = 10 ms, the §5.4 setting.
const (
	linkBps = 1e9
	delta   = 0.01
)

// expected is what a correct run must produce for each input Coflow, indexed
// by Coflow id (the generator numbers Coflows 0..n-1).
type expected struct {
	tpl   []float64 // TpL, the packet-switched CCT lower bound
	bytes []float64 // total demand
	total float64
}

func (e *expected) add(c *coflow.Coflow) error {
	if c.ID != len(e.tpl) {
		return fmt.Errorf("generator yielded coflow %d at position %d", c.ID, len(e.tpl))
	}
	b := c.TotalBytes()
	e.tpl = append(e.tpl, c.PacketLowerBound(linkBps))
	e.bytes = append(e.bytes, b)
	e.total += b
	return nil
}

// sameBytes compares byte totals that were summed in different orders.
func sameBytes(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// baseSeed is the generator seed of every workload's base trace. The run
// seed does not pick the trace: it drives the §5.1 ±5% flow-size
// perturbation of it, as the paper varies its one Facebook trace between
// runs. Different generator seeds differ by up to 3× in scheduling work at
// these sizes, which no run length here averages out.
const baseSeed = 1

// perturbFrac and the 1 MB floor are §5.1's perturbation.
const perturbFrac = 0.05

// writeFB150Trace writes the base trace, perturbed by seed, as a
// benchmark-format trace, streaming it so the file is the only copy. The
// format stores one size per reducer, so each reducer's megabytes are
// perturbed, floored at 1 MB.
func writeFB150Trace(g trace.Generator, seed int64, path string) (*expected, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	st := g.Stream()
	jw, err := trace.NewJobWriter(f, st.Ports(), st.Len())
	if err != nil {
		f.Close()
		return nil, err
	}
	exp := &expected{}
	for j, ok := st.Next(); ok; j, ok = st.Next() {
		for k, mb := range j.ReducerMB {
			j.ReducerMB[k] = max(mb*(1+perturbFrac*(2*rng.Float64()-1)), workload.DefaultFloorBytes/trace.MB)
		}
		if err := exp.add(j.Coflow()); err != nil {
			f.Close()
			return nil, err
		}
		if err := jw.Write(j); err != nil {
			f.Close()
			return nil, err
		}
	}
	if err := jw.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	return exp, f.Close()
}

// fb150 streams the paper-density Facebook mix on 150 ports from a trace
// file through trace.Scanner in archive mode, as sunflow-scale -in does. Its
// set-up is the Scanner's AutoBase validation pass over the file.
func fb150(o options, log *spanLog) ([]passResult, error) {
	n := o.size.fbCoflows
	g := trace.Generator{Ports: 150, Coflows: n, HorizonSec: float64(n) / 526 * 3600, Seed: baseSeed, Dist: trace.DistFacebook}
	path := filepath.Join(o.work, "fb150.trace")
	exp, err := writeFB150Trace(g, o.seed, path)
	if err != nil {
		return nil, fmt.Errorf("fb150 input: %w", err)
	}
	return runPasses(o, func(traced bool) (passResult, error) {
		var l *spanLog
		if traced {
			l = log.forPass()
		}
		root := l.begin("pass", -1)
		defer l.end(root)
		f, err := os.Open(path)
		if err != nil {
			return passResult{}, err
		}
		defer f.Close()
		runtime.GC()
		sp := l.begin("trace.scan", root)
		t0 := time.Now()
		sc, err := trace.NewScanner(f, trace.AutoBase)
		setup := time.Since(t0).Seconds()
		l.end(sp)
		if err != nil {
			return passResult{}, fmt.Errorf("fb150 scan: %w", err)
		}
		if sc.Ports() != 150 || sc.NumJobs() != n {
			return passResult{}, fmt.Errorf("fb150 scan: header says %d ports, %d jobs", sc.Ports(), sc.NumJobs())
		}
		p := runSim(o, exp, 150, sc.Coflows(), traced, l, root)
		p.setup = setup
		if traced {
			p.layer["trace.scan_s"] = setup
		}
		return p, nil
	})
}

// dense48 runs a deep live set: 48 ports, at most 4 mappers and reducers per
// Coflow, 10 arrivals per second, bytes scaled to 20% idleness. Its set-up
// is workload.ScaleToIdleness over the generated Coflows. Its traced run
// adds the daemon phase.
func dense48(o options, log *spanLog) ([]passResult, error) {
	raw, err := dense48Input(o.seed, o.size.denseCoflows)
	if err != nil {
		return nil, err
	}
	factor, scaled, err := workload.ScaleToIdleness(raw, linkBps, denseIdleness)
	if err != nil {
		return nil, fmt.Errorf("dense48 scale: %w", err)
	}
	exp := &expected{}
	for _, c := range scaled {
		if err := exp.add(c); err != nil {
			return nil, err
		}
	}
	// The traced run also measures the daemon layer, first, so its spans fit
	// the span budget.
	var extra []passResult
	if o.trace {
		p, err := daemonPhase(o, log)
		if err != nil {
			return nil, err
		}
		extra = append(extra, p)
	}
	passes, err := runPasses(o, func(traced bool) (passResult, error) {
		var l *spanLog
		if traced {
			l = log.forPass()
		}
		root := l.begin("pass", -1)
		defer l.end(root)
		runtime.GC()
		sp := l.begin("workload.scale", root)
		t0 := time.Now()
		f, cs, err := workload.ScaleToIdleness(raw, linkBps, denseIdleness)
		setup := time.Since(t0).Seconds()
		l.end(sp)
		if err != nil {
			return passResult{}, fmt.Errorf("dense48 scale: %w", err)
		}
		if f != factor {
			return passResult{}, fmt.Errorf("dense48 scale: factor %v, earlier %v", f, factor)
		}
		p := runSim(o, exp, 48, sim.SliceSource(cs), traced, l, root)
		p.setup = setup
		if traced {
			p.layer["workload.scale_s"] = setup
			p.layer["workload.scale_factor"] = f
		}
		return p, nil
	})
	return append(passes, extra...), err
}

// denseIdleness is the §5.4 idleness both dense48-shaped workloads scale to.
const denseIdleness = 0.20

// dense48Input generates the dense48-shaped base trace of n Coflows and
// perturbs it by seed; bytes are not yet scaled.
func dense48Input(seed int64, n int) ([]*coflow.Coflow, error) {
	g := trace.Generator{Ports: 48, Coflows: n, HorizonSec: float64(n) / 10, Seed: baseSeed, MaxWidth: 4, Dist: trace.DistFacebook}
	cs := g.Trace().Coflows
	if len(cs) != n {
		return nil, fmt.Errorf("dense48 input: generated %d of %d coflows", len(cs), n)
	}
	cs = workload.Perturb(cs, perturbFrac, workload.DefaultFloorBytes, seed)
	// Collect the generator's garbage now, so it does not set the peak RSS.
	runtime.GC()
	return cs, nil
}

// timedSource wraps the Source the simulator pulls from. It records the host
// time between successive Coflows — the work the simulator does per arrival
// — and the time spent inside Next itself. With injectAt ≥ 0 it corrupts that
// Coflow (a flow to a port outside the fabric) to exercise failure counting.
type timedSource struct {
	src      sim.Source
	ports    int
	injectAt int
	log      *spanLog
	parent   int

	last     int64
	pulled   int
	inNext   int64
	gaps     []float64 // µs
	archived int
	peakLive int
}

func (t *timedSource) Next() (*coflow.Coflow, error) {
	start := clock()
	c, err := t.src.Next()
	end := clock()
	t.inNext += end - start
	t.log.add("trace.next", t.parent, start, end)
	if c == nil || err != nil {
		return c, err
	}
	if t.pulled > 0 {
		t.gaps = append(t.gaps, float64(start-t.last)/1e3)
	}
	t.last = start
	if t.pulled == t.injectAt {
		c = c.Clone()
		c.Flows[0].Dst = t.ports
	}
	t.pulled++
	t.peakLive = max(t.peakLive, t.pulled-t.archived)
	return c, nil
}

// runSim runs one timed RunCircuitSource pass in archive mode and checks its
// output against exp: every Coflow archived exactly once, none stranded, the
// archived bytes equal to the input bytes, and each CCT at least its TpL.
// Traced passes attach an obs.Observer and read runtime.MemStats around the
// run; both only observe.
func runSim(o options, exp *expected, ports int, src sim.Source, traced bool, l *spanLog, root int) passResult {
	n := len(exp.tpl)
	ts := &timedSource{src: src, ports: ports, injectAt: -1, log: l, gaps: make([]float64, 0, n)}
	if o.injectBad {
		ts.injectAt = n / 2
	}
	var p passResult
	p.ccts = make([]float64, 0, n)
	seen := make([]bool, n)
	var dig sim.ArchiveDigest
	var bytes float64
	opts := sim.CircuitOptions{Ports: ports, LinkBps: linkBps, Delta: delta}
	var ob *obs.Observer
	if traced {
		ob = obs.New()
		opts.Obs = ob
	}
	runSpan := -1
	opts.OnArchive = func(a sim.Archived) {
		start := clock()
		ts.archived++
		dig.Add(a)
		switch {
		case a.ID < 0 || a.ID >= n:
			p.violation("archived unknown coflow %d", a.ID)
		case seen[a.ID]:
			p.violation("coflow %d archived twice", a.ID)
		default:
			seen[a.ID] = true
			if !sameBytes(a.Bytes, exp.bytes[a.ID]) {
				p.violation("coflow %d archived %v bytes, input has %v", a.ID, a.Bytes, exp.bytes[a.ID])
			}
			if a.CCT < exp.tpl[a.ID]*(1-1e-9) {
				p.violation("coflow %d CCT %v below its TpL %v", a.ID, a.CCT, exp.tpl[a.ID])
			}
		}
		bytes += a.Bytes
		p.ccts = append(p.ccts, a.CCT)
		l.add("sim.archive", runSpan, start, clock())
	}

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	if traced {
		runtime.ReadMemStats(&ms0)
	}
	runSpan = l.begin("sim.run", root)
	ts.parent = runSpan
	t0 := time.Now()
	res, err := sim.RunCircuitSource(ts, opts)
	p.wall = time.Since(t0).Seconds()
	l.end(runSpan)
	if traced {
		runtime.ReadMemStats(&ms1)
	}

	p.attempted = n
	p.ops = dig.Count()
	p.failed = n - dig.Count()
	if err != nil {
		p.violation("simulation failed: %v", err)
	}
	if res.Partial.Degraded() {
		p.violation("%d flows stranded on a fault-free fabric", len(res.Partial.Stranded))
	}
	if dig.Count() != n {
		p.violation("archived %d of %d coflows", dig.Count(), n)
	} else if !sameBytes(bytes, exp.total) {
		p.violation("archived %v bytes, input has %v", bytes, exp.total)
	}
	p.admit = ts.gaps
	p.digest = dig.Sum()
	if !traced {
		return p
	}
	next := float64(ts.inNext) / 1e9
	p.layer = map[string]float64{
		"trace.next_s":           next,
		"trace.jobs":             float64(ts.pulled),
		"sim.run_s":              p.wall,
		"sim.events":             float64(res.Events),
		"sim.self_s":             p.wall - next - ob.SchedSeconds.Load(),
		"sim.arrival_gap_p50_us": percentile(ts.gaps, 0.50),
		"sim.arrival_gap_p99_us": percentile(ts.gaps, 0.99),
		"sim.peak_live":          float64(ts.peakLive),
		"sim.circuit_setups":     float64(ob.CircuitSetups.Load()),
		"sim.duty_cycle":         ob.Summary().DutyCycle,
	}
	addCoreLayer(p.layer, ob)
	addGoLayer(p.layer, &ms0, &ms1, n)
	p.counts = map[string]int{"sim.arrival_gap_p50_us": len(ts.gaps), "sim.arrival_gap_p99_us": len(ts.gaps)}
	return p
}

// addCoreLayer copies the scheduler counters the program's Observer keeps.
func addCoreLayer(m map[string]float64, ob *obs.Observer) {
	calls, skipped := float64(ob.IntraPasses.Load()), float64(ob.IntraSkipped.Load())
	intra := ob.IntraSeconds.Load()
	m["core.sched_passes"] = float64(ob.SchedPasses.Load())
	m["core.sched_s"] = ob.SchedSeconds.Load()
	m["core.sched_pass_p99_us"] = ob.SchedPassTime.Quantile(0.99) * 1e6
	m["core.intra_calls"] = calls
	m["core.intra_s"] = intra
	m["core.intra_us_per_call"] = intra / math.Max(calls, 1) * 1e6
	m["core.intra_skipped"] = skipped
	m["core.plan_reuse_ratio"] = skipped / math.Max(calls+skipped, 1)
	m["core.reservations"] = float64(ob.Reservations.Load())
	m["core.res_shortened"] = float64(ob.ResShortened.Load())
}

// addGoLayer records the Go runtime's allocation and GC work between two
// MemStats readings taken around a timed phase that completed ops Coflows.
func addGoLayer(m map[string]float64, ms0, ms1 *runtime.MemStats, ops int) {
	m["go.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	m["go.mallocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(max(ops, 1))
	m["go.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
}
