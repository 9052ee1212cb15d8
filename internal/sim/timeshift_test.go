package sim

import (
	"fmt"
	"maps"
	"testing"

	"sunflow/internal/coflow"
	"sunflow/internal/core"
	"sunflow/internal/fault"
	"sunflow/internal/obs"
	"sunflow/internal/trace"
)

// TestCircuitRejectsUnrepresentableArrival: an arrival no int64 nanosecond
// tick holds is an error on both entry points, not an implementation-defined
// conversion.
func TestCircuitRejectsUnrepresentableArrival(t *testing.T) {
	cs := []*coflow.Coflow{
		coflow.New(1, 0, []coflow.Flow{{Src: 0, Dst: 1, Bytes: 1e6}}),
		coflow.New(2, 1e300, []coflow.Flow{{Src: 1, Dst: 0, Bytes: 1e6}}),
	}
	if _, err := RunCircuit(cs, circOpts); err == nil {
		t.Error("RunCircuit accepted an arrival of 1e300 s")
	}
	if _, err := RunCircuitSource(SliceSource(cs), circOpts); err == nil {
		t.Error("RunCircuitSource accepted an arrival of 1e300 s")
	}
}

// shiftRun is what a time-shifted run must reproduce exactly: per-Coflow
// CCTs and switch counts, and per-flow finish instants relative to the
// Coflow's arrival, in ticks.
type shiftRun struct {
	cct        map[int]float64
	switches   map[int]int
	flowFinish map[string]int64
}

// TestTimeShiftInvariance shifts every arrival, the fair-window Offset and
// every fault-plan outage by the same whole number of nanoseconds — 0,
// −100 s, +100 s and +684410 s (the 100k trace horizon) — and requires every
// CCT, switch count and flow finish − arrival to be bit-identical: with
// integer ticks, where time zero lies cannot matter.
func TestTimeShiftInvariance(t *testing.T) {
	base := ns(200) // every case starts here, so a −100 s shift stays valid for fault plans
	tr := trace.Generator{Ports: 8, Coflows: 30, HorizonSec: 6, MaxWidth: 5, Seed: 3}.Trace()
	cases := map[string]func(shift int64) CircuitOptions{
		"fault-free": func(int64) CircuitOptions { return CircuitOptions{Ports: tr.Ports, LinkBps: gbps, Delta: 0.01} },
		"fair windows": func(shift int64) CircuitOptions {
			return CircuitOptions{Ports: tr.Ports, LinkBps: gbps, Delta: 0.01,
				Fair: &core.FairWindows{N: tr.Ports, T: ns(0.7), Tau: ns(0.05), Offset: base + shift}}
		},
		"fault plan": func(shift int64) CircuitOptions {
			at := func(sec float64) float64 { return core.Seconds(base + shift + ns(sec)) }
			return CircuitOptions{Ports: tr.Ports, LinkBps: gbps, Delta: 0.01, Faults: &fault.Plan{
				Seed: 5,
				PortFailures: []fault.PortFailure{
					{Port: 2, At: at(0.8), Duration: 0.35},
					{Port: 5, At: at(1.9), Duration: 0.6},
					{Port: 7, At: at(3.1)},
				},
				SetupFailProb: 0.2, MaxRetries: 2,
				DegradedLinkProb: 0.2, DegradedFactor: 0.5,
			}}
		},
	}
	for name, opts := range cases {
		t.Run(name, func(t *testing.T) {
			want := shiftedRun(t, tr.Coflows, base, opts(0))
			if len(want.cct) == 0 || len(want.flowFinish) == 0 {
				t.Fatal("the base run completed nothing")
			}
			for _, shift := range []int64{ns(-100), ns(100), ns(684410)} {
				got := shiftedRun(t, tr.Coflows, base+shift, opts(shift))
				if !maps.Equal(got.cct, want.cct) || !maps.Equal(got.switches, want.switches) || !maps.Equal(got.flowFinish, want.flowFinish) {
					t.Errorf("shift %v s: results differ from the unshifted run", core.Seconds(shift))
				}
			}
		})
	}
}

// shiftedRun runs the Coflows with every arrival moved to start + its trace
// arrival, tracing flow finishes.
func shiftedRun(t *testing.T, cs []*coflow.Coflow, start int64, opts CircuitOptions) shiftRun {
	t.Helper()
	arrival := map[int]int64{}
	shifted := make([]*coflow.Coflow, len(cs))
	for i, c := range cs {
		arrival[c.ID] = start + ns(c.Arrival)
		shifted[i] = c.Clone()
		shifted[i].Arrival = core.Seconds(arrival[c.ID])
	}
	sink := &obs.SliceSink{}
	opts.Obs = obs.NewWith(obs.NewRegistry(), sink)
	res, err := RunCircuit(shifted, opts)
	if err != nil {
		t.Fatal(err)
	}
	run := shiftRun{cct: res.CCT, switches: res.SwitchCount, flowFinish: map[string]int64{}}
	for _, ev := range sink.Events() {
		if ev.Kind == obs.KindFlowFinish {
			run.flowFinish[fmt.Sprintf("%d:%d>%d", ev.Coflow, ev.Src, ev.Dst)] = ns(ev.T) - arrival[ev.Coflow]
		}
	}
	return run
}
