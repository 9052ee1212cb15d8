package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"sunflow/internal/coflow"
	"sunflow/internal/core"
	"sunflow/internal/fault"
	"sunflow/internal/obs"
)

// streamPlan builds a seeded fault plan mixing transient outages, setup
// failures, degraded links and stragglers; every third seed adds a permanent
// port failure so the stranded/Partial path is exercised too.
func streamPlan(seed int64) *fault.Plan {
	plan := &fault.Plan{
		Seed:          seed,
		SetupFailProb: 0.3,
		TransientRate: 0.1, MeanOutage: 0.2, Horizon: 10,
		DegradedLinkProb: 0.2,
		StragglerProb:    0.2,
	}
	if seed%3 == 0 {
		plan.PortFailures = []fault.PortFailure{{Port: int((seed%5 + 5) % 5), At: 0.5}}
	}
	return plan
}

// streamWorkload is randomWorkload plus an occasional zero-demand Coflow so
// the instant-retire admission path is covered.
func streamWorkload(rng *rand.Rand, n, ports, maxFlows int, horizon float64) []*coflow.Coflow {
	cs := randomWorkload(rng, n, ports, maxFlows, horizon)
	if rng.Intn(3) == 0 {
		cs = append(cs, coflow.New(n, rng.Float64()*horizon, nil))
	}
	return cs
}

// TestQuickSourceBitIdenticalToSlice is the streaming acceptance property:
// pulling the workload Coflow-by-Coflow through RunCircuitSource must leave
// results and the trace stream bit-identical to the retained RunCircuit
// path, fault plans included.
func TestQuickSourceBitIdenticalToSlice(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cs := streamWorkload(rng, 6, 5, 6, 2)
		opts := CircuitOptions{Ports: 5, LinkBps: gbps, Delta: 0.01}
		if seed%2 == 0 {
			opts.Faults = streamPlan(seed)
		}

		a, aEv := tracedCircuit(t, cs, opts)

		sink := &obs.SliceSink{}
		sopts := opts
		sopts.Obs = obs.NewWith(obs.NewRegistry(), sink)
		b, err := RunCircuitSource(SliceSource(cs), sopts)
		if err != nil {
			t.Logf("seed %d: source run failed: %v", seed, err)
			return false
		}
		return reflect.DeepEqual(a, b) && sameEvents(aEv, sink.Events())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickArchiveMatchesRetained is the bounded-memory acceptance property:
// the compact records OnArchive mode retires must be reflect.DeepEqual-exact
// with what the retained full-memory path records in its Result maps, across
// seeded workloads with fault plans, and archive mode must not perturb the
// trace stream.
func TestQuickArchiveMatchesRetained(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cs := streamWorkload(rng, 6, 5, 6, 2)
		opts := CircuitOptions{Ports: 5, LinkBps: gbps, Delta: 0.01}
		if seed%2 == 0 {
			opts.Faults = streamPlan(seed)
		}

		retained, retEv := tracedCircuit(t, cs, opts)

		var recs []Archived
		sink := &obs.SliceSink{}
		aopts := opts
		aopts.Obs = obs.NewWith(obs.NewRegistry(), sink)
		aopts.OnArchive = func(a Archived) { recs = append(recs, a) }
		ares, err := RunCircuitSource(SliceSource(cs), aopts)
		if err != nil {
			t.Logf("seed %d: archive run failed: %v", seed, err)
			return false
		}
		if len(ares.CCT) != 0 || len(ares.Finish) != 0 || len(ares.SwitchCount) != 0 {
			t.Logf("seed %d: archive mode filled the Result maps", seed)
			return false
		}
		if ares.Events != retained.Events || !reflect.DeepEqual(ares.Partial, retained.Partial) {
			t.Logf("seed %d: events/partial diverged", seed)
			return false
		}
		if !sameEvents(retEv, sink.Events()) {
			t.Logf("seed %d: trace stream diverged", seed)
			return false
		}

		// Rebuild the Result maps from the archive records; they must be
		// exact. SwitchCount is compared over completed Coflows: the retained
		// map also counts establishments for Coflows that later stranded into
		// the PartialResult, which never archive.
		gotCCT := make(map[int]float64, len(recs))
		gotFinish := make(map[int]float64, len(recs))
		gotSwitch := map[int]int{}
		byID := map[int]*coflow.Coflow{}
		for _, c := range cs {
			byID[c.ID] = c
		}
		for _, a := range recs {
			if _, dup := gotCCT[a.ID]; dup {
				t.Logf("seed %d: coflow %d archived twice", seed, a.ID)
				return false
			}
			gotCCT[a.ID] = a.CCT
			gotFinish[a.ID] = a.Finish
			if a.Switches != 0 {
				gotSwitch[a.ID] = a.Switches
			}
			c := byID[a.ID]
			if c == nil || a.Arrival != core.Seconds(ns(c.Arrival)) {
				t.Logf("seed %d: record %d carries wrong arrival", seed, a.ID)
				return false
			}
			var want float64
			for _, fl := range c.Flows {
				if fl.Bytes > 0 {
					want += fl.Bytes
				}
			}
			if a.Bytes != want {
				t.Logf("seed %d: record %d bytes = %v, want %v", seed, a.ID, a.Bytes, want)
				return false
			}
		}
		if !reflect.DeepEqual(gotCCT, retained.CCT) || !reflect.DeepEqual(gotFinish, retained.Finish) {
			t.Logf("seed %d: archived CCT/Finish diverged from retained maps", seed)
			return false
		}
		if retained.Partial == nil {
			if !reflect.DeepEqual(gotSwitch, retained.SwitchCount) {
				t.Logf("seed %d: archived switch counts diverged", seed)
				return false
			}
		} else {
			for id := range retained.CCT {
				if gotSwitch[id] != retained.SwitchCount[id] {
					t.Logf("seed %d: coflow %d switches %d, want %d", seed, id, gotSwitch[id], retained.SwitchCount[id])
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

// TestQuickArchiveDigestOrderIndependent: the digest is a set fingerprint —
// any permutation of the same records folds to the same sum, and any single
// bit of difference changes it.
func TestQuickArchiveDigestOrderIndependent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		recs := make([]Archived, n)
		for i := range recs {
			recs[i] = Archived{
				ID:       i,
				Arrival:  rng.Float64(),
				Finish:   rng.Float64() * 10,
				CCT:      rng.Float64(),
				Bytes:    rng.Float64() * 1e9,
				Switches: rng.Intn(50),
			}
		}
		var a ArchiveDigest
		for _, r := range recs {
			a.Add(r)
		}
		perm := rng.Perm(n)
		var b ArchiveDigest
		for _, i := range perm {
			b.Add(recs[i])
		}
		if a.Sum() != b.Sum() || a.Count() != n {
			return false
		}
		var c ArchiveDigest
		for i, r := range recs {
			if i == n/2 {
				r.Switches++
			}
			c.Add(r)
		}
		return c.Sum() != a.Sum()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSourceRejectsBadStreams: invalid, out-of-order and duplicate Coflows
// surface as errors from the streamed path.
func TestSourceRejectsBadStreams(t *testing.T) {
	opts := CircuitOptions{Ports: 4, LinkBps: gbps, Delta: 0.01}
	mk := func(id int, at float64) *coflow.Coflow {
		return coflow.New(id, at, []coflow.Flow{{Src: 0, Dst: 1, Bytes: 1e6}})
	}

	t.Run("out_of_order", func(t *testing.T) {
		src := &sliceSource{cs: []*coflow.Coflow{mk(1, 1.0), mk(2, 0.5)}}
		if _, err := RunCircuitSource(src, opts); err == nil {
			t.Fatal("out-of-order source must fail")
		}
	})
	t.Run("duplicate_id_same_arrival", func(t *testing.T) {
		src := &sliceSource{cs: []*coflow.Coflow{mk(1, 0.5), mk(1, 0.5)}}
		if _, err := RunCircuitSource(src, opts); err == nil {
			t.Fatal("duplicate id must fail")
		}
	})
	t.Run("duplicate_id_while_live", func(t *testing.T) {
		src := &sliceSource{cs: []*coflow.Coflow{mk(1, 0.0), mk(1, 1e-12)}}
		if _, err := RunCircuitSource(src, opts); err == nil {
			t.Fatal("duplicate live id must fail")
		}
	})
	t.Run("invalid_port", func(t *testing.T) {
		bad := coflow.New(1, 0, []coflow.Flow{{Src: 9, Dst: 1, Bytes: 1e6}})
		src := &sliceSource{cs: []*coflow.Coflow{bad}}
		if _, err := RunCircuitSource(src, opts); err == nil {
			t.Fatal("invalid coflow must fail")
		}
	})
}
