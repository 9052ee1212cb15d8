package sim

import (
	"fmt"
	"maps"
	"sort"
	"sync"

	"sunflow/internal/coflow"
	"sunflow/internal/core"
	"sunflow/internal/obs"
)

// Partition splits a workload into the connected components of its
// port-contention graph: two Coflows land in the same component exactly when
// a chain of shared switch ports links them, a port counting as shared
// whenever either Coflow sends or receives on it. The input and output sides
// of a port are independent bandwidth resources on an optical switch (§2.1),
// but the fault model treats the port as one failure domain — an outage downs
// both sides at once — so the partition conflates the sides too: components
// then never co-own a port in any role, each port's outages belong to exactly
// one component, and component simulations are fully independent.
// Components are returned in order of their first Coflow in the input slice
// and preserve the input order of their members; a Coflow with no positive
// demand touches no ports and forms a singleton component.
func Partition(coflows []*coflow.Coflow, ports int) [][]*coflow.Coflow {
	parent := make([]int, ports)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}

	for _, c := range coflows {
		anchor := -1
		for _, f := range c.Flows {
			if f.Bytes <= 0 {
				continue
			}
			if anchor < 0 {
				anchor = f.Src
			}
			union(anchor, f.Src)
			union(anchor, f.Dst)
		}
	}

	byRoot := map[int]int{}
	var comps [][]*coflow.Coflow
	for _, c := range coflows {
		anchor := -1
		for _, f := range c.Flows {
			if f.Bytes > 0 {
				anchor = f.Src
				break
			}
		}
		if anchor < 0 {
			comps = append(comps, []*coflow.Coflow{c})
			continue
		}
		root := find(anchor)
		idx, ok := byRoot[root]
		if !ok {
			idx = len(comps)
			byRoot[root] = idx
			comps = append(comps, nil)
		}
		comps[idx] = append(comps[idx], c)
	}
	return comps
}

// componentPorts returns which ports a component touches in either role,
// as a lookup usable with fault.Model.RestrictPorts.
func componentPorts(comp []*coflow.Coflow, ports int) func(int) bool {
	used := make([]bool, ports)
	for _, c := range comp {
		for _, f := range c.Flows {
			if f.Bytes > 0 {
				used[f.Src] = true
				used[f.Dst] = true
			}
		}
	}
	return func(p int) bool { return p >= 0 && p < ports && used[p] }
}

// RunCircuitSharded simulates the workload like RunCircuit but splits it
// into port-disjoint connected components (Partition) and runs independent
// components concurrently on up to workers goroutines. Results merge
// deterministically in component order — the output is bit-identical across
// worker counts — and each component gets private, deterministically merged
// instrumentation: metric registries fold in component order
// (obs.Registry.Merge) and trace streams concatenate in component order, so
// a traced sharded run is reproducible even though its event interleaving
// differs from the serial run's.
//
// Within one component the simulation is exactly RunCircuit on that
// component's Coflows. Against the serial whole-fabric run the results agree
// to floating-point precision whenever at most one Coflow per component is
// live at a time, but can differ for real under heavy intra-component
// contention: the serial loop replans every live Coflow at every global
// event, so a foreign component's arrival or completion can re-sort a
// component's queue after an in-flight Coflow's shrinking remainder overtook
// a queued one — a replan instant the component-local run does not have.
// Both schedules are valid Sunflow schedules; see docs/SCALE.md for the full
// determinism contract. Result.Events is the sum over component loops and
// the PartialResult's stranded flows appear in component order, not global
// quarantine order.
//
// Some configurations fall back to the serial path, which is always correct:
// fewer than two workers or components, starvation-avoidance fair windows
// (fair service is defined over the whole fabric's window assignment), and
// fault plans with a FailFirstSetups budget (the budget is a global
// first-K-attempts counter, inherently order-dependent).
func RunCircuitSharded(coflows []*coflow.Coflow, opts CircuitOptions, workers int) (Result, error) {
	if _, err := checkCircuitOptions(opts); err != nil {
		return newResult(), err
	}
	arrivalsOrder, _, err := prepare(coflows, opts.Ports)
	if err != nil {
		return newResult(), err
	}
	serial := func() (Result, error) {
		return runCircuit(&sliceSource{cs: arrivalsOrder}, opts, false)
	}
	if workers <= 1 || opts.Fair != nil || (opts.Faults != nil && opts.Faults.FailFirstSetups > 0) {
		return serial()
	}

	comps := Partition(arrivalsOrder, opts.Ports)
	var real [][]*coflow.Coflow
	var trivial []*coflow.Coflow
	for _, comp := range comps {
		if len(comp) == 1 && comp[0].TotalBytes() <= 0 {
			trivial = append(trivial, comp[0])
			continue
		}
		real = append(real, comp)
	}
	if len(real) <= 1 {
		return serial()
	}
	if workers > len(real) {
		workers = len(real)
	}

	sp := opts.Prof.Start("sim.run").Attr("sim", "circuit-sharded")
	defer sp.Finish()

	// The archive callback must not run concurrently: callers fold records
	// into digests or writers that are not goroutine-safe.
	onArchive := opts.OnArchive
	if onArchive != nil {
		var mu sync.Mutex
		cb := opts.OnArchive
		onArchive = func(a Archived) {
			mu.Lock()
			cb(a)
			mu.Unlock()
		}
	}

	type shardOut struct {
		res Result
		err error
		reg *obs.Registry
		evs []obs.Event
	}
	outs := make([]shardOut, len(real))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				comp := real[i]
				copts := opts
				copts.Prof = nil
				copts.OnArchive = onArchive
				var sink *obs.SliceSink
				copts.Obs, sink = opts.Obs.Detached()
				fm, err := opts.Faults.Compile(opts.Ports)
				if err != nil {
					outs[i] = shardOut{err: fmt.Errorf("sim: %w", err)}
					continue
				}
				fm.RestrictPorts(componentPorts(comp, opts.Ports))
				copts.faultModel = fm
				r, err := runCircuit(&sliceSource{cs: comp}, copts, false)
				outs[i] = shardOut{res: r, err: err, reg: copts.Obs.Registry()}
				if sink != nil {
					outs[i].evs = sink.Events()
				}
			}
		}()
	}
	for i := range real {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	res := newResult()
	for i := range outs {
		if outs[i].err != nil {
			return res, outs[i].err
		}
	}

	// Zero-demand Coflows retire at admission with no events or circuits, as
	// the serial admit would record them; archive them (or record them) first
	// so their order is fixed before any component merges.
	for _, c := range trivial {
		at, err := core.Nanos(c.Arrival)
		if err != nil {
			return res, fmt.Errorf("sim: coflow %d arrival: %w", c.ID, err)
		}
		recordInstant(&res, onArchive, c, at)
	}

	for i := range outs {
		out := &outs[i]
		maps.Copy(res.CCT, out.res.CCT)
		maps.Copy(res.Finish, out.res.Finish)
		maps.Copy(res.SwitchCount, out.res.SwitchCount)
		res.Events += out.res.Events
		if p := out.res.Partial; p != nil {
			dst := partialOf(&res)
			dst.Stranded = append(dst.Stranded, p.Stranded...)
			dst.Bytes += p.Bytes
			maps.Copy(dst.Finish, p.Finish)
		}
	}

	if opts.Obs != nil {
		reg := opts.Obs.Registry()
		for i := range outs {
			reg.Merge(outs[i].reg)
		}
		if sink := opts.Obs.Sink(); sink != nil {
			for i := range outs {
				for _, ev := range outs[i].evs {
					sink.Emit(ev)
				}
			}
		}
	}
	return res, nil
}

// sortStranded orders stranded flows by (At, Coflow, Src, Dst) — the
// canonical order differential tests compare sharded and serial partial
// results in, since the two paths discover strandings in different orders.
func sortStranded(s []StrandedFlow) {
	sort.Slice(s, func(a, b int) bool {
		if s[a].At != s[b].At {
			return s[a].At < s[b].At
		}
		if s[a].Coflow != s[b].Coflow {
			return s[a].Coflow < s[b].Coflow
		}
		if s[a].Src != s[b].Src {
			return s[a].Src < s[b].Src
		}
		return s[a].Dst < s[b].Dst
	})
}
