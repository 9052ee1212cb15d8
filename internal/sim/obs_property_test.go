package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"sunflow/internal/coflow"
	"sunflow/internal/obs"
	"sunflow/internal/trace"
	"sunflow/internal/varys"
)

// obsWorkload is a deterministic multi-Coflow workload exercising circuit
// reuse, replanning and queueing.
func obsWorkload() []*coflow.Coflow {
	return trace.Generator{Ports: 12, Coflows: 15, MaxWidth: 5, Seed: 7}.Trace().Coflows
}

func workloadBytes(cs []*coflow.Coflow) float64 {
	var sum float64
	for _, c := range cs {
		sum += c.TotalBytes()
	}
	return sum
}

func workloadFlows(cs []*coflow.Coflow) int {
	n := 0
	for _, c := range cs {
		n += c.NumFlows()
	}
	return n
}

// TestCircuitObsReconciles checks the observability layer against the
// circuit simulator's own ground truth: every byte of demand is counted
// delivered exactly once, every switch is one circuit_up event, and the
// Coflow/flow lifecycles balance.
func TestCircuitObsReconciles(t *testing.T) {
	cs := obsWorkload()
	sink := &obs.SliceSink{}
	o := obs.NewWith(obs.NewRegistry(), sink)
	res, err := RunCircuit(cs, CircuitOptions{Ports: 12, LinkBps: gbps, Delta: 0.01, Obs: o})
	if err != nil {
		t.Fatal(err)
	}

	want := workloadBytes(cs)
	if got := o.BytesDelivered.Load(); math.Abs(got-want) > 1e-6*want {
		t.Errorf("BytesDelivered = %v, workload carries %v", got, want)
	}

	switches := 0
	for _, n := range res.SwitchCount {
		switches += n
	}
	if got := o.CircuitSetups.Load(); got != int64(switches) {
		t.Errorf("CircuitSetups = %d, simulator counted %d switches", got, switches)
	}
	if got := sink.Count(obs.KindCircuitUp); got != switches {
		t.Errorf("circuit_up events = %d, want %d", got, switches)
	}
	if got := sink.Count(obs.KindCircuitDown); got != switches {
		t.Errorf("circuit_down events = %d, want %d (every circuit must come down)", got, switches)
	}
	// Every establishment pays exactly δ.
	if got, wantSetup := o.SetupSeconds.Load(), 0.01*float64(switches); math.Abs(got-wantSetup) > 1e-9*float64(switches+1) {
		t.Errorf("SetupSeconds = %v, want δ·switches = %v", got, wantSetup)
	}

	n := int64(len(cs))
	if o.CoflowsAdmitted.Load() != n || o.CoflowsCompleted.Load() != n {
		t.Errorf("admitted %d completed %d, want %d each",
			o.CoflowsAdmitted.Load(), o.CoflowsCompleted.Load(), n)
	}
	if sink.Count(obs.KindCoflowAdmit) != len(cs) || sink.Count(obs.KindCoflowComplete) != len(cs) {
		t.Errorf("admit events %d complete events %d, want %d each",
			sink.Count(obs.KindCoflowAdmit), sink.Count(obs.KindCoflowComplete), len(cs))
	}

	flows := workloadFlows(cs)
	if sink.Count(obs.KindFlowStart) != flows || sink.Count(obs.KindFlowFinish) != flows {
		t.Errorf("flow_start %d flow_finish %d, want %d each",
			sink.Count(obs.KindFlowStart), sink.Count(obs.KindFlowFinish), flows)
	}
}

// TestPacketObsReconciles checks the same invariants on the packet
// simulator (no circuits there, only flow and Coflow lifecycle and bytes).
func TestPacketObsReconciles(t *testing.T) {
	cs := obsWorkload()
	sink := &obs.SliceSink{}
	o := obs.NewWith(obs.NewRegistry(), sink)
	_, err := RunPacketObs(cs, 12, gbps, varys.Allocator{}, o)
	if err != nil {
		t.Fatal(err)
	}

	want := workloadBytes(cs)
	if got := o.BytesDelivered.Load(); math.Abs(got-want) > 1e-6*want {
		t.Errorf("BytesDelivered = %v, workload carries %v", got, want)
	}
	if o.CircuitSetups.Load() != 0 {
		t.Errorf("packet fabric counted %d circuit setups", o.CircuitSetups.Load())
	}
	n := int64(len(cs))
	if o.CoflowsAdmitted.Load() != n || o.CoflowsCompleted.Load() != n {
		t.Errorf("admitted %d completed %d, want %d each",
			o.CoflowsAdmitted.Load(), o.CoflowsCompleted.Load(), n)
	}
	flows := workloadFlows(cs)
	if sink.Count(obs.KindFlowStart) != flows || sink.Count(obs.KindFlowFinish) != flows {
		t.Errorf("flow_start %d flow_finish %d, want %d each",
			sink.Count(obs.KindFlowStart), sink.Count(obs.KindFlowFinish), flows)
	}
	if o.SchedPasses.Load() == 0 || o.SimEvents.Load() == 0 {
		t.Errorf("scheduler passes %d, sim events %d — expected both nonzero",
			o.SchedPasses.Load(), o.SimEvents.Load())
	}
}

// TestCircuitObsDisabledMatchesEnabled guards the zero-overhead contract's
// correctness half: instrumentation must not change simulation results.
func TestCircuitObsDisabledMatchesEnabled(t *testing.T) {
	cs := obsWorkload()
	plain, err := RunCircuit(cs, CircuitOptions{Ports: 12, LinkBps: gbps, Delta: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	observed, err := RunCircuit(cs, CircuitOptions{Ports: 12, LinkBps: gbps, Delta: 0.01, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	for id, cct := range plain.CCT {
		if observed.CCT[id] != cct {
			t.Errorf("coflow %d: CCT %v with obs, %v without", id, observed.CCT[id], cct)
		}
	}
	if plain.Events != observed.Events {
		t.Errorf("event counts differ: %d vs %d", plain.Events, observed.Events)
	}
}

// TestCircuitObsBookkeepingCounters pins the engine's bookkeeping counters:
// every established circuit is walked by the credit interval its setup
// starts in, so sched.credit_visits bounds circuit.setups from above; every
// admitted Coflow's policy key is computed at least once, and a pass that
// recomputed every key would compute one per (pass, live Coflow) — on a
// fault-free run intra_passes + intra_skipped — which the cache must beat.
// Both counters reach the Summary, the -metrics table and /metrics.
func TestCircuitObsBookkeepingCounters(t *testing.T) {
	o := obs.New()
	cs := trace.Generator{Ports: 12, Coflows: 30, MaxWidth: 5, HorizonSec: 0.5, Seed: 7}.Trace().Coflows
	if _, err := RunCircuit(cs, CircuitOptions{Ports: 12, LinkBps: gbps, Delta: 0.01, Obs: o}); err != nil {
		t.Fatal(err)
	}
	visits, keys := o.CreditVisits.Load(), o.OrderKeys.Load()
	if visits < o.CircuitSetups.Load() {
		t.Errorf("credit visits %d < circuit setups %d", visits, o.CircuitSetups.Load())
	}
	if full := o.IntraPasses.Load() + o.IntraSkipped.Load(); keys < o.CoflowsAdmitted.Load() || keys >= full {
		t.Errorf("order keys %d, want in [admitted %d, full recompute %d)", keys, o.CoflowsAdmitted.Load(), full)
	}
	if s := o.Summary(); s.CreditVisits != visits || s.OrderKeys != keys {
		t.Errorf("Summary() = %d/%d, counters hold %d/%d", s.CreditVisits, s.OrderKeys, visits, keys)
	}
	if table := obs.FormatSummaries(o); !strings.Contains(table, "credit visits") || !strings.Contains(table, "order keys") {
		t.Errorf("-metrics table lacks the bookkeeping columns:\n%s", table)
	}
	var sb strings.Builder
	if err := obs.WritePrometheus(&sb, o.Registry()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{fmt.Sprintf("sched_credit_visits %d\n", visits), fmt.Sprintf("sched_order_keys %d\n", keys)} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("Prometheus exposition lacks %q", want)
		}
	}
}
