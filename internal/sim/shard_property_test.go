package sim

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"sunflow/internal/coflow"
	"sunflow/internal/core"
	"sunflow/internal/fault"
	"sunflow/internal/obs"
)

// groupedWorkload builds a workload guaranteed to split into (at least)
// groups port-disjoint components: group g's Coflows draw every port from
// [g·span, (g+1)·span). IDs and arrivals interleave across groups and the
// slice is shuffled, so component membership never correlates with input
// position.
func groupedWorkload(rng *rand.Rand, groups, perGroup, span, maxFlows int, horizon float64) []*coflow.Coflow {
	var cs []*coflow.Coflow
	id := 0
	for g := 0; g < groups; g++ {
		lo := g * span
		for k := 0; k < perGroup; k++ {
			c := randomCoflow(rng, span, maxFlows)
			for i := range c.Flows {
				c.Flows[i].Src += lo
				c.Flows[i].Dst += lo
			}
			c.ID = id
			c.Arrival = rng.Float64() * horizon
			id++
			cs = append(cs, c)
		}
	}
	rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
	return cs
}

// shardPlan is streamPlan over an arbitrary port count.
func shardPlan(seed int64, ports int) *fault.Plan {
	plan := &fault.Plan{
		Seed:          seed,
		SetupFailProb: 0.3,
		TransientRate: 0.1, MeanOutage: 0.2, Horizon: 10,
		DegradedLinkProb: 0.2,
		StragglerProb:    0.2,
	}
	if seed%3 == 0 {
		p := int((seed%int64(ports) + int64(ports)) % int64(ports))
		plan.PortFailures = []fault.PortFailure{{Port: p, At: 0.5}}
	}
	return plan
}

func mkFlow(id int, at float64, src, dst int) *coflow.Coflow {
	return coflow.New(id, at, []coflow.Flow{{Src: src, Dst: dst, Bytes: 1e6}})
}

func TestPartition(t *testing.T) {
	t.Run("disjoint_ports_split", func(t *testing.T) {
		cs := []*coflow.Coflow{mkFlow(0, 0, 0, 1), mkFlow(1, 0, 2, 3)}
		if got := Partition(cs, 4); len(got) != 2 {
			t.Fatalf("got %d components, want 2", len(got))
		}
	})
	t.Run("port_is_one_failure_domain", func(t *testing.T) {
		// 0→1 and 1→2 touch port 1 on opposite sides. Bandwidth-wise the
		// sides never contend, but an outage downs the whole port, so the
		// partition must keep both users together.
		cs := []*coflow.Coflow{mkFlow(0, 0, 0, 1), mkFlow(1, 0, 1, 2)}
		if got := Partition(cs, 4); len(got) != 1 {
			t.Fatalf("got %d components, want 1", len(got))
		}
	})
	t.Run("shared_input_port_merges", func(t *testing.T) {
		cs := []*coflow.Coflow{mkFlow(0, 0, 0, 1), mkFlow(1, 0, 0, 3)}
		if got := Partition(cs, 4); len(got) != 1 {
			t.Fatalf("got %d components, want 1", len(got))
		}
	})
	t.Run("shared_output_port_merges", func(t *testing.T) {
		cs := []*coflow.Coflow{mkFlow(0, 0, 0, 2), mkFlow(1, 0, 1, 2)}
		if got := Partition(cs, 4); len(got) != 1 {
			t.Fatalf("got %d components, want 1", len(got))
		}
	})
	t.Run("transitive_chain", func(t *testing.T) {
		// 0→1 and 2→1 share output 1; 2→3 shares input 2 with the second:
		// all three coalesce.
		cs := []*coflow.Coflow{mkFlow(0, 0, 0, 1), mkFlow(1, 0, 2, 1), mkFlow(2, 0, 2, 3)}
		if got := Partition(cs, 4); len(got) != 1 {
			t.Fatalf("got %d components, want 1", len(got))
		}
	})
	t.Run("zero_demand_singleton_and_order", func(t *testing.T) {
		empty := coflow.New(7, 0.5, nil)
		cs := []*coflow.Coflow{mkFlow(0, 0, 0, 1), empty, mkFlow(2, 0, 2, 3), mkFlow(3, 0, 1, 0)}
		got := Partition(cs, 4)
		// Components in first-appearance order: {0,3} (ports {0,1}), {7},
		// {2}; members in input order.
		if len(got) != 3 {
			t.Fatalf("got %d components, want 3", len(got))
		}
		ids := func(comp []*coflow.Coflow) []int {
			var out []int
			for _, c := range comp {
				out = append(out, c.ID)
			}
			return out
		}
		if !reflect.DeepEqual(ids(got[0]), []int{0, 3}) ||
			!reflect.DeepEqual(ids(got[1]), []int{7}) ||
			!reflect.DeepEqual(ids(got[2]), []int{2}) {
			t.Fatalf("components %v %v %v, want [0 3] [7] [2]", ids(got[0]), ids(got[1]), ids(got[2]))
		}
	})
	t.Run("random_components_cover_and_disjoint", func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		for it := 0; it < 50; it++ {
			cs := groupedWorkload(rng, 3, 3, 4, 4, 2)
			comps := Partition(cs, 12)
			total := 0
			for _, comp := range comps {
				total += len(comp)
			}
			if total != len(cs) {
				t.Fatalf("components cover %d coflows, want %d", total, len(cs))
			}
			for a := range comps {
				for b := a + 1; b < len(comps); b++ {
					ka, kb := componentPorts(comps[a], 12), componentPorts(comps[b], 12)
					for p := 0; p < 12; p++ {
						if ka(p) && kb(p) {
							t.Fatalf("components %d and %d share port %d", a, b, p)
						}
					}
				}
			}
		}
	})
}

// runSharded runs RunCircuitSharded with a traced observer and returns the
// result, trace and merged metric snapshot. Wall-clock metrics — scheduler
// pass timings measured with time.Since — are stripped from the snapshot:
// every other metric is a deterministic function of the simulation.
func runSharded(t *testing.T, cs []*coflow.Coflow, opts CircuitOptions, workers int) (Result, []obs.Event, obs.Snapshot) {
	t.Helper()
	sink := &obs.SliceSink{}
	opts.Obs = obs.NewWith(obs.NewRegistry(), sink)
	res, err := RunCircuitSharded(cs, opts, workers)
	if err != nil {
		t.Fatalf("sharded run (workers=%d) failed: %v", workers, err)
	}
	snap := opts.Obs.Registry().Snapshot()
	for _, name := range []string{
		obs.NameSchedSeconds, obs.NameSchedPassTime, obs.NameIntraSeconds,
		obs.NameIntraFastSeconds, obs.NameIntraRefSeconds,
	} {
		delete(snap, name)
	}
	return res, sink.Events(), snap
}

// TestQuickShardedDeterministicAcrossWorkers is the sharding determinism
// property: results, trace streams, merged metric snapshots and archive
// digests are bit-identical for every worker count, faults included.
func TestQuickShardedDeterministicAcrossWorkers(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cs := groupedWorkload(rng, 3, 4, 4, 5, 2)
		if rng.Intn(3) == 0 {
			cs = append(cs, coflow.New(len(cs), rng.Float64()*2, nil))
		}
		opts := CircuitOptions{Ports: 12, LinkBps: gbps, Delta: 0.01}
		if seed%2 == 0 {
			opts.Faults = shardPlan(seed, 12)
		}

		base, baseEv, baseSnap := runSharded(t, cs, opts, 2)
		for _, workers := range []int{3, 8} {
			res, evs, snap := runSharded(t, cs, opts, workers)
			if !reflect.DeepEqual(base, res) {
				t.Logf("seed %d: results differ between workers=2 and workers=%d", seed, workers)
				return false
			}
			if !sameEvents(baseEv, evs) {
				t.Logf("seed %d: traces differ between workers=2 and workers=%d", seed, workers)
				return false
			}
			if !reflect.DeepEqual(baseSnap, snap) {
				t.Logf("seed %d: metric snapshots differ between workers=2 and workers=%d", seed, workers)
				return false
			}
		}

		digest := func(workers int) string {
			var d ArchiveDigest
			aopts := opts
			aopts.OnArchive = func(a Archived) { d.Add(a) }
			if _, err := RunCircuitSharded(cs, aopts, workers); err != nil {
				t.Logf("seed %d: archive sharded run failed: %v", seed, err)
				return ""
			}
			return d.Sum()
		}
		d2 := digest(2)
		if d2 == "" || d2 != digest(5) {
			t.Logf("seed %d: archive digests differ across worker counts", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickShardedMatchesComponentRuns is the merge oracle: the sharded
// result must equal, map for map, what serial RunCircuit produces on each
// component in isolation (under the same port-restricted fault model) merged
// in component order.
func TestQuickShardedMatchesComponentRuns(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cs := groupedWorkload(rng, 3, 3, 4, 4, 2)
		if rng.Intn(3) == 0 {
			cs = append(cs, coflow.New(len(cs), rng.Float64()*2, nil))
		}
		opts := CircuitOptions{Ports: 12, LinkBps: gbps, Delta: 0.01}
		if seed%2 == 0 {
			opts.Faults = shardPlan(seed, 12)
		}

		sharded, err := RunCircuitSharded(cs, opts, 4)
		if err != nil {
			t.Logf("seed %d: sharded run failed: %v", seed, err)
			return false
		}

		// Reproduce the runner's merge by hand: prepare order, partition,
		// per-component serial runs with port-restricted models.
		ordered := append([]*coflow.Coflow(nil), cs...)
		sort.SliceStable(ordered, func(a, b int) bool {
			if ordered[a].Arrival != ordered[b].Arrival {
				return ordered[a].Arrival < ordered[b].Arrival
			}
			return ordered[a].ID < ordered[b].ID
		})
		want := newResult()
		for _, comp := range Partition(ordered, opts.Ports) {
			if len(comp) == 1 && comp[0].TotalBytes() <= 0 {
				want.CCT[comp[0].ID] = 0
				want.Finish[comp[0].ID] = core.Seconds(ns(comp[0].Arrival))
				continue
			}
			copts := opts
			fm, err := opts.Faults.Compile(opts.Ports)
			if err != nil {
				t.Logf("seed %d: compile failed: %v", seed, err)
				return false
			}
			fm.RestrictPorts(componentPorts(comp, opts.Ports))
			copts.faultModel = fm
			r, err := RunCircuit(comp, copts)
			if err != nil {
				t.Logf("seed %d: component run failed: %v", seed, err)
				return false
			}
			for id, v := range r.CCT {
				want.CCT[id] = v
			}
			for id, v := range r.Finish {
				want.Finish[id] = v
			}
			for id, v := range r.SwitchCount {
				want.SwitchCount[id] = v
			}
			want.Events += r.Events
			if p := r.Partial; p != nil {
				dst := partialOf(&want)
				dst.Stranded = append(dst.Stranded, p.Stranded...)
				dst.Bytes += p.Bytes
				for id, v := range p.Finish {
					dst.Finish[id] = v
				}
			}
		}
		if !reflect.DeepEqual(sharded, want) {
			t.Logf("seed %d: sharded result diverged from merged component runs", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickShardedMatchesSerialUncontended is the vs-serial differential on
// workloads with one Coflow per component, where the serial whole-fabric
// schedule and the component-local schedules coincide up to floating-point
// credit-interval splits: completion times agree to tolerance and circuit
// establishment counts exactly. Two caveats bound the oracle (both spelled
// out in the RunCircuitSharded contract and docs/SCALE.md): with several
// live Coflows per component the serial loop can re-sort a component's queue
// at foreign components' events, and fault kinds that surface new
// schedulable demand mid-interval — setup-retry, degraded-link and straggler
// shortfalls — get replanned at the next event, which the denser serial mesh
// reaches earlier. Port outages perturb demand only at outage boundaries,
// which both meshes share, so the plan here injects transient and permanent
// outages only.
func TestQuickShardedMatchesSerialUncontended(t *testing.T) {
	outagePlan := func(seed int64) *fault.Plan {
		plan := &fault.Plan{
			Seed:          seed,
			TransientRate: 0.2, MeanOutage: 0.2, Horizon: 10,
		}
		if seed%3 == 0 {
			p := int((seed%12 + 12) % 12)
			plan.PortFailures = []fault.PortFailure{{Port: p, At: 0.5}}
		}
		return plan
	}
	approx := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cs := groupedWorkload(rng, 4, 1, 3, 5, 2)
		opts := CircuitOptions{Ports: 12, LinkBps: gbps, Delta: 0.01}
		if seed%2 == 0 {
			opts.Faults = outagePlan(seed)
		}

		serial, err := RunCircuit(cs, opts)
		if err != nil {
			t.Logf("seed %d: serial run failed: %v", seed, err)
			return false
		}
		sharded, err := RunCircuitSharded(cs, opts, 3)
		if err != nil {
			t.Logf("seed %d: sharded run failed: %v", seed, err)
			return false
		}

		if !reflect.DeepEqual(serial.SwitchCount, sharded.SwitchCount) {
			t.Logf("seed %d: switch counts diverged: %v vs %v", seed, serial.SwitchCount, sharded.SwitchCount)
			return false
		}
		cmpMap := func(name string, a, b map[int]float64) bool {
			if len(a) != len(b) {
				t.Logf("seed %d: %s cardinality %d vs %d", seed, name, len(a), len(b))
				return false
			}
			for id, v := range a {
				w, ok := b[id]
				if !ok || !approx(v, w) {
					t.Logf("seed %d: %s[%d] = %v vs %v", seed, name, id, v, w)
					return false
				}
			}
			return true
		}
		if !cmpMap("CCT", serial.CCT, sharded.CCT) || !cmpMap("Finish", serial.Finish, sharded.Finish) {
			return false
		}
		if (serial.Partial == nil) != (sharded.Partial == nil) {
			t.Logf("seed %d: partial presence diverged", seed)
			return false
		}
		if serial.Partial != nil {
			a, b := serial.Partial, sharded.Partial
			if !approx(a.Bytes, b.Bytes) || !cmpMap("Partial.Finish", a.Finish, b.Finish) {
				return false
			}
			if len(a.Stranded) != len(b.Stranded) {
				t.Logf("seed %d: stranded %d vs %d flows", seed, len(a.Stranded), len(b.Stranded))
				return false
			}
			sa := append([]StrandedFlow(nil), a.Stranded...)
			sb := append([]StrandedFlow(nil), b.Stranded...)
			sortStranded(sa)
			sortStranded(sb)
			for i := range sa {
				if sa[i].Coflow != sb[i].Coflow || sa[i].Src != sb[i].Src || sa[i].Dst != sb[i].Dst ||
					!approx(sa[i].At, sb[i].At) || !approx(sa[i].Bytes, sb[i].Bytes) {
					t.Logf("seed %d: stranded flow %d diverged: %+v vs %+v", seed, i, sa[i], sb[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestShardedSerialFallbacks: configurations the sharded runner cannot split
// must take the serial path and return bit-identical results.
func TestShardedSerialFallbacks(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cs := groupedWorkload(rng, 3, 3, 4, 4, 2)

	cases := map[string]CircuitOptions{
		"fair_windows": {Ports: 12, LinkBps: gbps, Delta: 0.01,
			Fair: &core.FairWindows{N: 12, T: ns(1.0), Tau: ns(0.1)}},
		"fail_first_setups": {Ports: 12, LinkBps: gbps, Delta: 0.01,
			Faults: &fault.Plan{Seed: 1, FailFirstSetups: 2}},
	}
	for name, opts := range cases {
		t.Run(name, func(t *testing.T) {
			want, err := RunCircuit(cs, opts)
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			got, err := RunCircuitSharded(cs, opts, 4)
			if err != nil {
				t.Fatalf("sharded: %v", err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatal("fallback result differs from serial")
			}
		})
	}
	t.Run("single_worker", func(t *testing.T) {
		opts := CircuitOptions{Ports: 12, LinkBps: gbps, Delta: 0.01}
		want, err := RunCircuit(cs, opts)
		if err != nil {
			t.Fatalf("serial: %v", err)
		}
		got, err := RunCircuitSharded(cs, opts, 1)
		if err != nil {
			t.Fatalf("sharded: %v", err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatal("workers=1 result differs from serial")
		}
	})
	t.Run("single_component", func(t *testing.T) {
		// Random 5-port workloads almost surely collapse into one component.
		one := randomWorkload(rng, 6, 5, 6, 2)
		if n := len(Partition(one, 5)); n != 1 {
			t.Skipf("workload split into %d components", n)
		}
		opts := CircuitOptions{Ports: 5, LinkBps: gbps, Delta: 0.01}
		want, err := RunCircuit(one, opts)
		if err != nil {
			t.Fatalf("serial: %v", err)
		}
		got, err := RunCircuitSharded(one, opts, 4)
		if err != nil {
			t.Fatalf("sharded: %v", err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatal("single-component result differs from serial")
		}
	})
}
