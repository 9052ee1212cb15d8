// Package sunflow is a from-scratch reproduction of "Sunflow: Efficient
// Optical Circuit Scheduling for Coflows" (Huang, Sun and Ng, CoNEXT 2016).
//
// It provides the Sunflow circuit scheduling algorithm — non-preemptive at
// the intra-Coflow level over a Port Reservation Table, priority-ordered at
// the inter-Coflow level — together with the baselines the paper evaluates
// against (Solstice, TMS and Edmond on the circuit switch; Varys and Aalo on
// the packet switch), trace-driven flow-level simulators for both fabrics, a
// coflow-benchmark trace parser and a calibrated synthetic generator.
//
// The root package is a façade: it re-exports the types a typical user needs
// and offers one-call entry points for the common operations. Power users
// can reach the underlying machinery through the internal packages' public
// mirrors on these aliases.
//
// # Quick start
//
//	c := sunflow.NewCoflow(1, 0, []sunflow.Flow{
//		{Src: 0, Dst: 1, Bytes: 64e6},
//		{Src: 2, Dst: 3, Bytes: 128e6},
//	})
//	sched, err := sunflow.ScheduleOne(c, 4, sunflow.Options{
//		LinkBps: 1e9, Delta: 0.01,
//	})
//	fmt.Println(sched.CCT(0), sched.SwitchingCount())
package sunflow

import (
	"io"

	"sunflow/internal/coflow"
	"sunflow/internal/core"
	"sunflow/internal/fabric"
	"sunflow/internal/fault"
	"sunflow/internal/hybrid"
	"sunflow/internal/obs"
	"sunflow/internal/sim"
	"sunflow/internal/trace"
	"sunflow/internal/workload"
)

// Core traffic model.
type (
	// Flow is one point-to-point transfer inside a Coflow.
	Flow = coflow.Flow
	// Coflow is a set of flows sharing one completion objective.
	Coflow = coflow.Coflow
	// Class is a Coflow's sender-to-receiver ratio category.
	Class = coflow.Class
)

// Coflow classes (Table 4 of the paper).
const (
	OneToOne   = coflow.OneToOne
	OneToMany  = coflow.OneToMany
	ManyToOne  = coflow.ManyToOne
	ManyToMany = coflow.ManyToMany
)

// Scheduler configuration and results.
type (
	// Options configures the Sunflow scheduler (bandwidth B, reconfiguration
	// delay δ, start time, reservation ordering).
	Options = core.Options
	// Schedule is a Coflow's circuit reservations and timing.
	Schedule = core.Schedule
	// Reservation is one circuit held on a port pair for an interval.
	Reservation = core.Reservation
	// PRT is the Port Reservation Table shared by scheduled Coflows.
	PRT = core.PRT
	// Order selects the intra-Coflow reservation ordering.
	Order = core.Order
	// Policy orders Coflows by priority for inter-Coflow scheduling.
	Policy = core.Policy
	// ShortestFirst is the shortest-Coflow-first policy of the evaluation.
	ShortestFirst = core.ShortestFirst
	// FIFO serves Coflows in arrival order.
	FIFO = core.FIFO
	// PriorityClasses serves operator-assigned classes strictly.
	PriorityClasses = core.PriorityClasses
	// FairWindows is the starvation-avoidance configuration of §4.2.
	FairWindows = core.FairWindows
)

// Reservation orderings (§5.3.1).
const (
	OrderedPort  = core.OrderedPort
	RandomOrder  = core.RandomOrder
	SortedDemand = core.SortedDemand
)

// Simulation types.
type (
	// SimResult reports per-Coflow completion times of a simulation run.
	SimResult = sim.Result
	// CircuitOptions configures the online circuit-switched simulation.
	CircuitOptions = sim.CircuitOptions
	// PacketOptions configures the packet-switched simulation.
	PacketOptions = sim.PacketOptions
	// RateAllocator computes packet-switched flow rates (Varys, Aalo, fair).
	RateAllocator = fabric.RateAllocator
)

// Fault injection (docs/FAULTS.md). A FaultPlan in CircuitOptions.Faults or
// PacketOptions.Faults deterministically injects port outages, circuit-setup
// failures (retried with exponential backoff, each attempt re-paying δ),
// degraded link rates and straggler flows; a nil or zero plan leaves the
// simulation bit-identical to the fault-free baseline. Flows a permanent
// failure makes unroutable are quarantined into SimResult.Partial.
type (
	// FaultPlan declares the faults of one simulation run.
	FaultPlan = fault.Plan
	// PortFailure is one scripted port outage in a FaultPlan.
	PortFailure = fault.PortFailure
	// PartialResult reports the flows stranded by permanent failures.
	PartialResult = sim.PartialResult
)

// DecodeFaultPlan reads and validates a JSON FaultPlan. Unknown fields,
// malformed probabilities and negative times are rejected.
func DecodeFaultPlan(r io.Reader) (*FaultPlan, error) { return fault.DecodePlan(r) }

// Hybrid fabric extension (§6 / REACToR).
type (
	// HybridOptions configures a hybrid circuit/packet fabric.
	HybridOptions = hybrid.Options
	// HybridResult reports a hybrid simulation.
	HybridResult = hybrid.Result
)

// Observability. An Observer threads counters and an optional JSONL event
// trace through the simulators and schedulers (CircuitOptions.Obs,
// Options.Obs, allocator Obs fields); a nil Observer disables everything.
type (
	// Observer is the instrumentation handle; see NewObserver.
	Observer = obs.Observer
	// ObsSummary is the headline metric set of one Observer scope.
	ObsSummary = obs.Summary
	// ObsEvent is one structured simulation trace event.
	ObsEvent = obs.Event
	// ObsSink consumes trace events (obs.NewJSONLSink writes JSON Lines).
	ObsSink = obs.Sink
)

// NewObserver returns an Observer with tracing disabled; metrics accumulate
// in a fresh registry and Snapshot()/Summary() export them.
func NewObserver() *Observer { return obs.New() }

// NewTracingObserver returns an Observer that additionally emits structured
// simulation events to w as JSON Lines. Flush (or Close) the returned sink
// before reading the output.
func NewTracingObserver(w io.Writer) (*Observer, *obs.JSONLSink) {
	sink := obs.NewJSONLSink(w)
	return obs.NewWith(obs.NewRegistry(), sink), sink
}

// SimulateHybrid replays the workload on a hybrid fabric: a Sunflow-
// scheduled circuit switch for bulk flows plus a small-bandwidth packet
// network for flows below the threshold.
func SimulateHybrid(cs []*Coflow, opts HybridOptions) (HybridResult, error) {
	return hybrid.Run(cs, opts)
}

// Trace tooling.
type (
	// Trace is a Coflow workload over an N-port fabric.
	Trace = trace.Trace
	// TraceGenerator synthesizes Facebook-like workloads.
	TraceGenerator = trace.Generator
	// Job is one MapReduce shuffle in coflow-benchmark form.
	Job = trace.Job
)

// NewCoflow returns a Coflow with the given id, arrival time (seconds) and
// flows.
func NewCoflow(id int, arrival float64, flows []Flow) *Coflow {
	return coflow.New(id, arrival, flows)
}

// Nanos converts seconds to the integer nanoseconds ("ticks") Options,
// Schedule, Reservation and FairWindows carry; Seconds converts back.
func Nanos(sec float64) (int64, error) { return core.Nanos(sec) }

// Seconds converts ticks to seconds.
func Seconds(ns int64) float64 { return core.Seconds(ns) }

// NewPRT returns an empty Port Reservation Table for an n-port switch.
func NewPRT(n int) *PRT { return core.NewPRT(n) }

// ScheduleOne runs the intra-Coflow Sunflow scheduler for a single Coflow on
// an empty n-port fabric and returns its schedule. The resulting CCT is
// provably within 2× of both the optimal circuit schedule and the circuit
// lower bound TcL (Lemma 1).
func ScheduleOne(c *Coflow, ports int, opts Options) (*Schedule, error) {
	return core.IntraCoflow(core.NewPRT(ports), c, opts)
}

// ScheduleAll runs inter-Coflow Sunflow scheduling: Coflows are sorted by
// policy (nil means shortest-Coflow-first) and scheduled in order over one
// shared PRT, so higher priority Coflows are never blocked by lower priority
// ones. Returned schedules parallel the policy order; the second return
// value is that order.
func ScheduleAll(cs []*Coflow, ports int, opts Options, policy Policy) ([]*Schedule, []*Coflow, error) {
	if policy == nil {
		policy = core.ShortestFirst{LinkBps: opts.LinkBps}
	}
	ordered := policy.Sort(cs)
	scheds, err := core.InterCoflow(core.NewPRT(ports), ordered, opts)
	return scheds, ordered, err
}

// SimulateCircuit replays a Coflow workload on a Sunflow-scheduled optical
// circuit switch, rescheduling on every arrival and completion without
// preempting established circuits, and returns per-Coflow CCTs.
func SimulateCircuit(cs []*Coflow, opts CircuitOptions) (SimResult, error) {
	return sim.RunCircuit(cs, opts)
}

// SimulatePacket replays a Coflow workload on a packet-switched fabric under
// the given rate allocator (varys.Allocator, aalo.Allocator or
// fabric.FairSharing) and returns per-Coflow CCTs.
func SimulatePacket(cs []*Coflow, ports int, linkBps float64, alloc RateAllocator) (SimResult, error) {
	return sim.RunPacket(cs, ports, linkBps, alloc)
}

// SimulatePacketOpts is SimulatePacket with the full option set — an
// Observer for metrics/tracing and a FaultPlan for degraded-fabric runs.
func SimulatePacketOpts(cs []*Coflow, opts PacketOptions) (SimResult, error) {
	return sim.RunPacketOpts(cs, opts)
}

// PacketLowerBound returns TpL, the Coflow's packet-switched completion
// lower bound (Equation 2).
func PacketLowerBound(c *Coflow, linkBps float64) float64 {
	return c.PacketLowerBound(linkBps)
}

// CircuitLowerBound returns TcL, the Coflow's circuit-switched completion
// lower bound under the not-all-stop model (Equation 4).
func CircuitLowerBound(c *Coflow, linkBps, delta float64) float64 {
	return c.CircuitLowerBound(linkBps, delta)
}

// ParseTrace reads a workload in the coflow-benchmark text format.
func ParseTrace(r io.Reader) (*Trace, error) { return trace.Parse(r) }

// Perturb applies the evaluation's ±frac flow-size perturbation with a
// floor, deterministically in seed (§5.1 uses frac = 0.05 and a 1 MB floor).
func Perturb(cs []*Coflow, frac, floorBytes float64, seed int64) []*Coflow {
	return workload.Perturb(cs, frac, floorBytes, seed)
}

// Idleness computes the §5.4 network idleness metric of a workload.
func Idleness(cs []*Coflow, linkBps float64) float64 {
	return workload.Idleness(cs, linkBps)
}
