package obs

import (
	"reflect"
	"sort"
	"sync"
)

// Metric names used by the standard Observer handles. Scoped observers
// prefix these with "<scope>.".
const (
	NameCircuitSetups    = "circuit.setups"
	NameSetupSeconds     = "circuit.setup_seconds"
	NameHoldSeconds      = "circuit.hold_seconds"
	NamePlannedBytes     = "circuit.planned_bytes"
	NameBytesDelivered   = "sim.bytes_delivered"
	NameCoflowsAdmitted  = "sim.coflows_admitted"
	NameCoflowsCompleted = "sim.coflows_completed"
	NameSimEvents        = "sim.events"
	NameQueueDepth       = "sim.queue_depth"
	NameSchedPasses      = "sched.passes"
	NameSchedSeconds     = "sched.seconds"
	NameSchedPassTime    = "sched.pass_seconds"
	NameIntraPasses      = "sched.intra_passes"
	NameIntraSkipped     = "sched.intra_skipped"
	NameCreditVisits     = "sched.credit_visits"
	NameOrderKeys        = "sched.order_keys"
	NameIntraExamined    = "sched.intra_examined"
	NameIntraSeconds     = "sched.intra_seconds"
	NameIntraFastSeconds = "sched.intra_fast_seconds"
	NameIntraRefSeconds  = "sched.intra_ref_seconds"
	NameReservations     = "sched.reservations"
	NameResShortened     = "sched.reservations_shortened"
	NameInBusySeconds    = "port.in_busy_seconds"
	NameOutBusySeconds   = "port.out_busy_seconds"
	NameCircuitRetries   = "fault.circuit_retries"
	NameRetrySeconds     = "fault.retry_seconds"
	NamePortDowns        = "fault.port_downs"
	NameFlowsStranded    = "fault.flows_stranded"
	NameStrandedBytes    = "fault.stranded_bytes"
)

// Observer is the instrumentation handle threaded through the simulators and
// schedulers. All metric handles point into one shared Registry, pre-resolved
// at construction so hot-path updates are single atomic operations. A nil
// *Observer disables everything: call sites pay one nil-check.
//
// Scoped children (Scoped) share the parent's Registry and Sink but resolve
// their handles under a "<scope>." name prefix, so one Registry can hold
// per-scheduler metric sets side by side.
type Observer struct {
	// Circuit execution: establishments actually paid on the fabric.
	CircuitSetups *Counter      // circuits established
	SetupSeconds  *FloatCounter // total reconfiguration (δ) time paid
	HoldSeconds   *FloatCounter // total time circuits held their port pair
	PlannedBytes  *FloatCounter // capacity of established circuits

	// Simulation progress.
	BytesDelivered   *FloatCounter // bytes actually credited to flows
	CoflowsAdmitted  *Counter
	CoflowsCompleted *Counter
	SimEvents        *Counter
	QueueDepth       *Gauge // live plan / event-queue depth, with high-water mark

	// Scheduler cost.
	SchedPasses   *Counter      // top-level scheduling passes (replan / allocate)
	SchedSeconds  *FloatCounter // wall time inside those passes
	SchedPassTime *Histogram    // distribution of per-pass wall time (seconds)
	IntraPasses   *Counter      // per-Coflow intra-scheduler invocations
	// IntraSkipped counts live Coflows whose cached schedule an incremental
	// replan reused instead of invoking the intra scheduler: on any event
	// sequence, IntraPasses + IntraSkipped equals the IntraPasses a
	// full-rebuild run would record (the reconciliation property tests pin
	// this).
	IntraSkipped *Counter
	// CreditVisits counts the reservations crediting walked: the due set of
	// each credit interval, not the whole plan (compare QueueDepth).
	CreditVisits *Counter
	// OrderKeys counts policy keys the online engine recomputed; a live
	// Coflow's key is cached until its remaining demand changes (compare
	// SchedPasses × live Coflows).
	OrderKeys *Counter
	// IntraExamined counts demand visits inside the intra scheduler;
	// Reservations / IntraExamined is the search's useful-work ratio.
	IntraExamined *Counter
	IntraSeconds  *FloatCounter
	// IntraSeconds split by planner path: the event-driven fast path versus
	// the scan-based reference path (core.Options.Reference). The trace
	// stream is path-invariant by design, so this is the only record of
	// which planner produced a run.
	IntraFastSeconds *FloatCounter
	IntraRefSeconds  *FloatCounter
	Reservations     *Counter // reservations/assignments planned (incl. replanned ones)
	ResShortened     *Counter // reservations cut short by a later commitment (extra δ paid later)

	// Per-port busy time of executed circuits (input and output sides are
	// independent on an optical switch).
	InBusySeconds  *FloatVec
	OutBusySeconds *FloatVec

	// Fault injection (all zero on a fault-free run).
	CircuitRetries *Counter      // failed circuit-setup attempts, each paying δ
	RetrySeconds   *FloatCounter // extra setup time beyond the base δ (retries + backoff)
	PortDowns      *Counter      // port outages that began
	FlowsStranded  *Counter      // flows quarantined by permanent port failures
	StrandedBytes  *FloatCounter // demand those flows could not deliver

	reg    *Registry
	sink   Sink
	prefix string // "" at the root, "<scope>." in children

	mu     sync.Mutex
	scopes map[string]*Observer
}

// New returns an Observer over a fresh Registry with tracing disabled.
func New() *Observer { return NewWith(NewRegistry(), nil) }

// NewWith returns an Observer over the given Registry, emitting trace events
// to sink (nil disables tracing). A typed-nil pointer sink — e.g. a nil
// *JSONLSink wrapped in the interface — also disables tracing rather than
// panicking on the first event.
func NewWith(reg *Registry, sink Sink) *Observer {
	if sink != nil {
		if v := reflect.ValueOf(sink); v.Kind() == reflect.Pointer && v.IsNil() {
			sink = nil
		}
	}
	return newScoped(reg, sink, "")
}

func newScoped(reg *Registry, sink Sink, prefix string) *Observer {
	return &Observer{
		CircuitSetups:    reg.Counter(prefix + NameCircuitSetups),
		SetupSeconds:     reg.FloatCounter(prefix + NameSetupSeconds),
		HoldSeconds:      reg.FloatCounter(prefix + NameHoldSeconds),
		PlannedBytes:     reg.FloatCounter(prefix + NamePlannedBytes),
		BytesDelivered:   reg.FloatCounter(prefix + NameBytesDelivered),
		CoflowsAdmitted:  reg.Counter(prefix + NameCoflowsAdmitted),
		CoflowsCompleted: reg.Counter(prefix + NameCoflowsCompleted),
		SimEvents:        reg.Counter(prefix + NameSimEvents),
		QueueDepth:       reg.Gauge(prefix + NameQueueDepth),
		SchedPasses:      reg.Counter(prefix + NameSchedPasses),
		SchedSeconds:     reg.FloatCounter(prefix + NameSchedSeconds),
		SchedPassTime:    reg.Histogram(prefix + NameSchedPassTime),
		IntraPasses:      reg.Counter(prefix + NameIntraPasses),
		IntraSkipped:     reg.Counter(prefix + NameIntraSkipped),
		CreditVisits:     reg.Counter(prefix + NameCreditVisits),
		OrderKeys:        reg.Counter(prefix + NameOrderKeys),
		IntraExamined:    reg.Counter(prefix + NameIntraExamined),
		IntraSeconds:     reg.FloatCounter(prefix + NameIntraSeconds),
		IntraFastSeconds: reg.FloatCounter(prefix + NameIntraFastSeconds),
		IntraRefSeconds:  reg.FloatCounter(prefix + NameIntraRefSeconds),
		Reservations:     reg.Counter(prefix + NameReservations),
		ResShortened:     reg.Counter(prefix + NameResShortened),
		InBusySeconds:    reg.FloatVec(prefix + NameInBusySeconds),
		OutBusySeconds:   reg.FloatVec(prefix + NameOutBusySeconds),
		CircuitRetries:   reg.Counter(prefix + NameCircuitRetries),
		RetrySeconds:     reg.FloatCounter(prefix + NameRetrySeconds),
		PortDowns:        reg.Counter(prefix + NamePortDowns),
		FlowsStranded:    reg.Counter(prefix + NameFlowsStranded),
		StrandedBytes:    reg.FloatCounter(prefix + NameStrandedBytes),
		reg:              reg,
		sink:             sink,
		prefix:           prefix,
	}
}

// Scoped returns the child Observer named scope, creating it on first use.
// Children share the Registry and Sink; their metrics live under
// "<scope>.<name>". Scoped on a nil Observer returns nil, so call sites can
// scope unconditionally.
func (o *Observer) Scoped(scope string) *Observer {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if c, ok := o.scopes[scope]; ok {
		return c
	}
	c := newScoped(o.reg, o.sink, o.prefix+scope+".")
	c.scopes = nil
	if o.scopes == nil {
		o.scopes = map[string]*Observer{}
	}
	o.scopes[scope] = c
	return c
}

// ScopeNames returns the names of the scopes created so far, sorted.
func (o *Observer) ScopeNames() []string {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	names := make([]string, 0, len(o.scopes))
	for n := range o.scopes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Registry returns the underlying Registry (nil-safe).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Sink returns the trace sink events are emitted to, or nil when tracing is
// disabled (nil-safe). Callers that want to tee extra consumers onto an
// existing observer combine this with Tee and NewWith.
func (o *Observer) Sink() Sink {
	if o == nil {
		return nil
	}
	return o.sink
}

// Snapshot exports the whole Registry (nil-safe).
func (o *Observer) Snapshot() Snapshot {
	if o == nil {
		return nil
	}
	return o.reg.Snapshot()
}

// Summary reduces this Observer's own metric set (not its scopes) to the
// headline numbers experiment rows report.
type Summary struct {
	CircuitSetups    int64   `json:"circuit_setups"`
	SetupSeconds     float64 `json:"setup_seconds"`
	HoldSeconds      float64 `json:"hold_seconds"`
	DutyCycle        float64 `json:"duty_cycle"`
	PlannedBytes     float64 `json:"planned_bytes"`
	BytesDelivered   float64 `json:"bytes_delivered"`
	CoflowsCompleted int64   `json:"coflows_completed"`
	SimEvents        int64   `json:"sim_events"`
	PeakQueueDepth   int64   `json:"peak_queue_depth"`
	SchedPasses      int64   `json:"sched_passes"`
	SchedSeconds     float64 `json:"sched_seconds"`
	IntraFastSeconds float64 `json:"intra_fast_seconds"`
	IntraRefSeconds  float64 `json:"intra_ref_seconds"`
	Reservations     int64   `json:"reservations"`
	// IntraExamined counts intra-scheduler demand visits; Reservations /
	// IntraExamined is the search's useful-work ratio.
	IntraExamined int64 `json:"intra_examined"`
	// CreditVisits and OrderKeys measure the online engine's per-event
	// bookkeeping: reservations crediting walked, policy keys recomputed.
	CreditVisits int64 `json:"credit_visits"`
	OrderKeys    int64 `json:"order_keys"`
}

// Summary reads the current headline values (nil-safe). DutyCycle is the
// fraction of circuit hold time spent transmitting rather than
// reconfiguring: (hold − setup) / hold.
func (o *Observer) Summary() Summary {
	if o == nil {
		return Summary{}
	}
	s := Summary{
		CircuitSetups:    o.CircuitSetups.Load(),
		SetupSeconds:     o.SetupSeconds.Load(),
		HoldSeconds:      o.HoldSeconds.Load(),
		PlannedBytes:     o.PlannedBytes.Load(),
		BytesDelivered:   o.BytesDelivered.Load(),
		CoflowsCompleted: o.CoflowsCompleted.Load(),
		SimEvents:        o.SimEvents.Load(),
		PeakQueueDepth:   o.QueueDepth.High(),
		SchedPasses:      o.SchedPasses.Load(),
		SchedSeconds:     o.SchedSeconds.Load(),
		IntraFastSeconds: o.IntraFastSeconds.Load(),
		IntraRefSeconds:  o.IntraRefSeconds.Load(),
		Reservations:     o.Reservations.Load(),
		IntraExamined:    o.IntraExamined.Load(),
		CreditVisits:     o.CreditVisits.Load(),
		OrderKeys:        o.OrderKeys.Load(),
	}
	s.DutyCycle = dutyCycle(s.HoldSeconds, s.SetupSeconds)
	return s
}

// Sub returns the change from prev to s — the per-run delta when one scoped
// Observer accumulates across several runs. PeakQueueDepth is not
// subtractable and keeps s's value.
func (s Summary) Sub(prev Summary) Summary {
	d := Summary{
		CircuitSetups:    s.CircuitSetups - prev.CircuitSetups,
		SetupSeconds:     s.SetupSeconds - prev.SetupSeconds,
		HoldSeconds:      s.HoldSeconds - prev.HoldSeconds,
		PlannedBytes:     s.PlannedBytes - prev.PlannedBytes,
		BytesDelivered:   s.BytesDelivered - prev.BytesDelivered,
		CoflowsCompleted: s.CoflowsCompleted - prev.CoflowsCompleted,
		SimEvents:        s.SimEvents - prev.SimEvents,
		PeakQueueDepth:   s.PeakQueueDepth,
		SchedPasses:      s.SchedPasses - prev.SchedPasses,
		SchedSeconds:     s.SchedSeconds - prev.SchedSeconds,
		IntraFastSeconds: s.IntraFastSeconds - prev.IntraFastSeconds,
		IntraRefSeconds:  s.IntraRefSeconds - prev.IntraRefSeconds,
		Reservations:     s.Reservations - prev.Reservations,
		IntraExamined:    s.IntraExamined - prev.IntraExamined,
		CreditVisits:     s.CreditVisits - prev.CreditVisits,
		OrderKeys:        s.OrderKeys - prev.OrderKeys,
	}
	d.DutyCycle = dutyCycle(d.HoldSeconds, d.SetupSeconds)
	return d
}

func dutyCycle(hold, setup float64) float64 {
	if hold <= 0 {
		return 0
	}
	return (hold - setup) / hold
}
