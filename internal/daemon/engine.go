// Package daemon is the online Sunflow scheduler service behind cmd/sunflowd:
// a long-running process that accepts Coflow registrations and
// completion/fault events over HTTP, maintains one live Port Reservation
// Table, and replans incrementally on every accepted event instead of
// rescheduling a batch trace from scratch.
//
// The package is split along a strict determinism boundary:
//
//   - Engine (this file) is a pure state machine over logical time: applying
//     an event sequence is a deterministic function of (EngineConfig, events),
//     with every schedule decision folded into a running SHA-256 digest.
//     Nothing in the Engine reads the wall clock.
//   - WAL and snapshot (wal.go, store.go) persist the accepted event sequence
//     and checkpoints of Engine state, so a crash recovers to bit-identical
//     schedules — the property test in recovery_test.go and the kill -9 smoke
//     in cmd/sunflowd-smoke enforce it.
//   - Daemon (daemon.go, http.go) wraps the Engine with the wall-clock
//     concerns of a service: admission control, request deadlines, retries,
//     watchdog, drain.
//
// The Engine runs the same circuit state machine as internal/sim
// (internal/circuit): crediting, retirement, replanning with the plan cache,
// fault repair and stranding all happen there. A stream of register events
// replayed through an Engine therefore yields Coflow completion times
// bit-identical to sim.RunCircuit on the same workload (engine_test.go checks
// it); the Engine itself adds event validation and idempotency, completion
// records, declared outages, the digest chain and snapshots.
package daemon

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"

	"sunflow/internal/circuit"
	"sunflow/internal/coflow"
	"sunflow/internal/core"
	"sunflow/internal/fabric"
	"sunflow/internal/obs"
)

// maxSteps bounds one advanceTo's internal completion/outage loop, turning a
// runaway replan cycle into an error the watchdog can surface instead of a
// wedged event loop.
const maxSteps = 10_000_000

// EventKind discriminates WAL records and API requests.
type EventKind string

// Event kinds accepted by the Engine.
const (
	// KindRegister admits a new Coflow at time At.
	KindRegister EventKind = "register"
	// KindAdvance moves logical time forward to At, crediting planned
	// delivery and retiring Coflows whose demand drains on the way.
	KindAdvance EventKind = "advance"
	// KindComplete force-completes a Coflow at At — the fabric (or operator)
	// declaring it done regardless of the plan.
	KindComplete EventKind = "complete"
	// KindFault declares a port outage starting at At for Duration seconds
	// (Duration <= 0 means permanent).
	KindFault EventKind = "fault"
)

// FlowSpec is one flow of a registration.
type FlowSpec struct {
	Src   int     `json:"src"`
	Dst   int     `json:"dst"`
	Bytes float64 `json:"bytes"`
}

// Event is one accepted daemon input: the WAL record, the HTTP request body
// and the Engine transition are all this struct. At is logical time in
// seconds, converted once to an integer-nanosecond tick by core.Nanos; events
// whose At precedes the Engine clock are applied "late" at the current clock
// (the At still counts as the Coflow's arrival for CCT).
type Event struct {
	// Seq is the WAL sequence number, assigned at admission; zero in request
	// bodies.
	Seq uint64 `json:"seq,omitempty"`
	// Kind selects the transition.
	Kind EventKind `json:"kind"`
	// At is the event's logical time.
	At float64 `json:"at"`
	// Coflow identifies the Coflow for register/complete.
	Coflow int `json:"coflow"`
	// Priority is the operator override for register: live Coflows are served
	// in strictly descending Priority, shortest-first within a class. Zero is
	// the default class.
	Priority int `json:"priority,omitempty"`
	// Flows is the registered demand.
	Flows []FlowSpec `json:"flows,omitempty"`
	// Port and Duration describe a fault.
	Port     int     `json:"port"`
	Duration float64 `json:"duration,omitempty"`
}

// Deterministic apply rejections. They are part of the state machine: a
// rejected event leaves the Engine unchanged and rejects identically when the
// WAL replays it after a crash.
var (
	// ErrBadEvent rejects malformed events (unknown kind, bad times, ports
	// outside the fabric, negative demand).
	ErrBadEvent = errors.New("daemon: bad event")
	// ErrDuplicateCoflow rejects re-registering an id with different content.
	// Identical re-registration is idempotent and accepted.
	ErrDuplicateCoflow = errors.New("daemon: coflow id already registered with different content")
	// ErrUnknownCoflow rejects completing an id never registered.
	ErrUnknownCoflow = errors.New("daemon: unknown coflow")
)

// EngineConfig fixes the fabric and scheduling parameters of an Engine. It
// must be identical across restarts of one data directory; Store guards this
// with a config fingerprint in the snapshot.
type EngineConfig struct {
	// Ports is the switch port count N.
	Ports int `json:"ports"`
	// LinkBps is the per-port bandwidth B in bits/s.
	LinkBps float64 `json:"link_bps"`
	// Delta is the circuit reconfiguration delay δ in seconds.
	Delta float64 `json:"delta"`
	// Order is the intra-Coflow reservation ordering.
	Order core.Order `json:"order"`
	// Seed drives RandomOrder.
	Seed int64 `json:"seed"`
}

// Validate reports an error for non-physical parameters.
func (c EngineConfig) Validate() error {
	if c.Ports <= 0 {
		return fmt.Errorf("daemon: fabric must have at least one port, got %d", c.Ports)
	}
	if c.LinkBps <= 0 {
		return fmt.Errorf("daemon: link bandwidth must be positive, got %v", c.LinkBps)
	}
	if c.Delta < 0 || math.IsNaN(c.Delta) {
		return fmt.Errorf("daemon: reconfiguration delay must be non-negative, got %v", c.Delta)
	}
	return nil
}

// Completion records one finished Coflow.
type Completion struct {
	Arrival float64 `json:"arrival"`
	Finish  float64 `json:"finish"`
	CCT     float64 `json:"cct"`
	// Switches counts the circuit establishments the Coflow paid.
	Switches int `json:"switches"`
	// Stranded marks a Coflow that lost flows to a permanent port failure:
	// its routable demand drained but Bytes of it never will.
	Stranded bool    `json:"stranded,omitempty"`
	Bytes    float64 `json:"stranded_bytes,omitempty"`
	// Forced marks an external KindComplete rather than a planned drain.
	Forced bool `json:"forced,omitempty"`
	// SpecHash fingerprints the registration (priority and flows) so a
	// re-registration of a finished id is accepted as idempotent only when it
	// matches what was actually registered, not on arrival time alone.
	SpecHash string `json:"spec_hash,omitempty"`
}

// Engine is the deterministic scheduling state machine. It is not safe for
// concurrent use; the Daemon serializes access through its event loop.
type Engine struct {
	cfg EngineConfig
	// eng is the circuit state machine the events drive.
	eng *circuit.Engine
	// specs keeps each live Coflow's registered flows and their fingerprint,
	// so duplicate registrations can be recognized as idempotent.
	specs map[int]liveSpec
	// reg is the scratch Coflow registrations are admitted through; the
	// circuit engine retains none of it.
	reg coflow.Coflow
	// outages is the fault view: the declared outages that can still affect
	// scheduling.
	outages *circuit.Faults
	// done maps finished Coflow ids to their completion records.
	done map[int]Completion
	// digest chains a SHA-256 over every applied event and the plan it
	// produced — the bit-identity fingerprint crash recovery is checked
	// against.
	digest [sha256.Size]byte
	// obs optionally records scheduler metrics; it must never influence
	// state (the recovery property test runs with and without it).
	obs *obs.Observer
}

// liveSpec is a live Coflow's registration as submitted.
type liveSpec struct {
	flows []FlowSpec
	hash  string
}

// NewEngine returns an empty Engine for the fabric.
func NewEngine(cfg EngineConfig, o *obs.Observer) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:     cfg,
		specs:   map[int]liveSpec{},
		outages: circuit.NewFaults(cfg.Ports),
		done:    map[int]Completion{},
		obs:     o,
	}
	delta, err := core.Nanos(cfg.Delta)
	if err != nil {
		return nil, fmt.Errorf("daemon: reconfiguration delay: %w", err)
	}
	e.eng = circuit.New(circuit.Config{
		Ports:   cfg.Ports,
		LinkBps: cfg.LinkBps,
		Delta:   delta,
		Order:   cfg.Order,
		Seed:    cfg.Seed,
		Obs:     o,
		Sink:    (*completionSink)(e),
	}, 0)
	return e, nil
}

// completionSink records the circuit engine's retirements as completions.
type completionSink Engine

func (s *completionSink) Retire(lc *circuit.Live, finish int64) {
	(*Engine)(s).complete(lc, finish, false)
}

// Strand needs no record: the live Coflow accumulates StrandedBytes.
func (s *completionSink) Strand(*circuit.Live, fabric.FlowKey, int64, int64) {}

// Now returns the Engine's logical clock in seconds.
func (e *Engine) Now() float64 { return core.Seconds(e.eng.Now()) }

// LiveCount returns the number of registered, unfinished Coflows.
func (e *Engine) LiveCount() int { return e.eng.Len() }

// DoneCount returns the number of finished Coflows.
func (e *Engine) DoneCount() int { return len(e.done) }

// Replans returns the number of successful scheduling passes.
func (e *Engine) Replans() uint64 { return e.eng.Passes() }

// Digest returns the hex SHA-256 chain over every applied event and the
// schedule it produced. Two Engines that applied the same event sequence —
// one of them through a crash and recovery — report identical digests.
func (e *Engine) Digest() string { return hex.EncodeToString(e.digest[:]) }

// Completions returns a copy of the finished-Coflow records.
func (e *Engine) Completions() map[int]Completion {
	return maps.Clone(e.done)
}

// Completion returns one Coflow's record.
func (e *Engine) Completion(id int) (Completion, bool) {
	c, ok := e.done[id]
	return c, ok
}

// Plan returns a copy of the current reservation plan, sorted by start time
// (ties by input, then output port).
func (e *Engine) Plan() []core.Reservation { return canonicalPlan(e.eng.Plan()) }

// LiveStatus is one live Coflow's externally visible state.
type LiveStatus struct {
	Coflow         int     `json:"coflow"`
	Arrival        float64 `json:"arrival"`
	Priority       int     `json:"priority,omitempty"`
	RemainingBytes float64 `json:"remaining_bytes"`
	PlannedFinish  float64 `json:"planned_finish"`
	Stranded       bool    `json:"stranded,omitempty"`
}

// Live returns the live set sorted by id.
func (e *Engine) Live() []LiveStatus {
	out := make([]LiveStatus, 0, e.eng.Len())
	for _, id := range e.eng.SortedIDs() {
		lc := e.eng.Lookup(id)
		rem := int64(0)
		for _, b := range lc.Rem {
			rem += b
		}
		out = append(out, LiveStatus{
			Coflow: id, Arrival: core.Seconds(lc.Arrival), Priority: lc.Priority,
			RemainingBytes: float64(rem), PlannedFinish: core.Seconds(lc.Finish), Stranded: lc.Stranded,
		})
	}
	return out
}

// validate rejects malformed events before any state is touched, so a
// rejection is side-effect free and replays identically. It returns the
// event's instant in ticks.
func (e *Engine) validate(ev Event) (int64, error) {
	at, err := core.Nanos(ev.At)
	if err != nil || ev.At < 0 {
		return 0, fmt.Errorf("%w: invalid time %v", ErrBadEvent, ev.At)
	}
	switch ev.Kind {
	case KindRegister:
		for i, f := range ev.Flows {
			if f.Src < 0 || f.Src >= e.cfg.Ports || f.Dst < 0 || f.Dst >= e.cfg.Ports {
				return 0, fmt.Errorf("%w: flow %d ports (%d,%d) outside [0,%d)", ErrBadEvent, i, f.Src, f.Dst, e.cfg.Ports)
			}
			if math.IsNaN(f.Bytes) || math.IsInf(f.Bytes, 0) || f.Bytes < 0 {
				return 0, fmt.Errorf("%w: flow %d has invalid size %v", ErrBadEvent, i, f.Bytes)
			}
		}
	case KindAdvance, KindComplete:
		// Nothing beyond the time check.
	case KindFault:
		if ev.Port < 0 || ev.Port >= e.cfg.Ports {
			return 0, fmt.Errorf("%w: fault names port %d outside [0,%d)", ErrBadEvent, ev.Port, e.cfg.Ports)
		}
		if math.IsNaN(ev.Duration) {
			return 0, fmt.Errorf("%w: fault has NaN duration", ErrBadEvent)
		}
		if _, err := outageEnd(ev); err != nil {
			return 0, fmt.Errorf("%w: fault end %v: %w", ErrBadEvent, ev.At+ev.Duration, err)
		}
	default:
		return 0, fmt.Errorf("%w: unknown kind %q", ErrBadEvent, ev.Kind)
	}
	return at, nil
}

// outageEnd returns the tick a fault event's outage ends at: At+Duration, or
// core.Forever for a permanent one (Duration <= 0 or +Inf).
func outageEnd(ev Event) (int64, error) {
	if ev.Duration <= 0 || math.IsInf(ev.Duration, 1) {
		return core.Forever, nil
	}
	return core.Nanos(ev.At + ev.Duration)
}

// Apply runs one event through the state machine. It returns whether the
// event changed state (false for idempotent duplicates) and a deterministic
// error for rejections; on error the Engine is unchanged except that the
// rejection itself is folded into the digest (a replayed WAL re-rejects
// identically, so recovery stays aligned).
func (e *Engine) Apply(ev Event) (applied bool, err error) {
	at, err := e.validate(ev)
	if err != nil {
		e.foldDigest(ev, false)
		return false, err
	}
	switch ev.Kind {
	case KindRegister:
		applied, err = e.applyRegister(ev, at)
	case KindAdvance:
		applied, err = true, e.advanceTo(at)
	case KindComplete:
		applied, err = e.applyComplete(ev, at)
	case KindFault:
		applied, err = e.applyFault(ev, at)
	}
	e.foldDigest(ev, applied)
	return applied, err
}

func (e *Engine) applyRegister(ev Event, at int64) (bool, error) {
	hash := hashSpec(ev.Priority, ev.Flows)
	if lc := e.eng.Lookup(ev.Coflow); lc != nil {
		if slices.Equal(e.specs[ev.Coflow].flows, ev.Flows) && lc.Arrival == at && lc.Priority == ev.Priority {
			return false, nil // client retry of an acked registration
		}
		return false, fmt.Errorf("%w: id %d", ErrDuplicateCoflow, ev.Coflow)
	}
	if done, ok := e.done[ev.Coflow]; ok {
		// Compared in ticks: a record restored from a version-2 snapshot
		// holds the registration's raw seconds.
		if arrival, _ := core.Nanos(done.Arrival); arrival == at && done.SpecHash == hash {
			return false, nil // client retry of a registration that already finished
		}
		return false, fmt.Errorf("%w: id %d already completed", ErrDuplicateCoflow, ev.Coflow)
	}
	if err := e.advanceTo(max(at, e.eng.Now())); err != nil {
		return false, err
	}
	c := &e.reg
	c.ID, c.Arrival, c.Flows = ev.Coflow, ev.At, c.Flows[:0]
	for _, f := range ev.Flows {
		c.Flows = append(c.Flows, coflow.Flow(f))
	}
	if !e.eng.Admit(c, at, ev.Priority) {
		// Zero-demand Coflows complete instantly, like the simulator.
		arrival := core.Seconds(at)
		e.done[ev.Coflow] = Completion{Arrival: arrival, Finish: arrival, CCT: 0, SpecHash: hash}
		return true, nil
	}
	e.specs[ev.Coflow] = liveSpec{flows: append([]FlowSpec(nil), ev.Flows...), hash: hash}
	return true, e.replan()
}

func (e *Engine) applyComplete(ev Event, at int64) (bool, error) {
	if e.eng.Lookup(ev.Coflow) == nil {
		if _, done := e.done[ev.Coflow]; done {
			return false, nil // already finished: idempotent
		}
		return false, fmt.Errorf("%w: id %d", ErrUnknownCoflow, ev.Coflow)
	}
	if err := e.advanceTo(max(at, e.eng.Now())); err != nil {
		return false, err
	}
	// The advance may have drained it on plan; then the external completion
	// arrives after the fact and is a no-op.
	lc := e.eng.Remove(ev.Coflow)
	if lc == nil {
		return false, nil
	}
	e.complete(lc, e.eng.Now(), true)
	if o := e.obs; o != nil {
		o.CoflowsCompleted.Inc()
	}
	return true, e.replan()
}

// complete records the Coflow's completion record at tick finish.
func (e *Engine) complete(lc *circuit.Live, finish int64, forced bool) {
	e.done[lc.ID] = Completion{
		Arrival:  core.Seconds(lc.Arrival),
		Finish:   core.Seconds(finish),
		CCT:      core.Seconds(finish - lc.Arrival),
		Switches: lc.Switches,
		Stranded: lc.Stranded,
		Bytes:    float64(lc.StrandedBytes),
		Forced:   forced,
		SpecHash: e.specs[lc.ID].hash,
	}
	delete(e.specs, lc.ID)
}

func (e *Engine) applyFault(ev Event, at int64) (bool, error) {
	if err := e.advanceTo(max(at, e.eng.Now())); err != nil {
		return false, err
	}
	end, _ := outageEnd(ev) // validate checked it
	og := circuit.Outage{Port: ev.Port, Start: at, End: end}
	now := e.eng.Now()
	e.outages.Add(og)
	e.eng.SetFaults(e.outages)
	if og.Start <= now && og.End > now {
		// The port is down as of now: circuits in flight across it release
		// immediately and their undelivered capacity returns to the planner.
		e.eng.PortDown(og)
	}
	return true, e.replan()
}

// replan runs one scheduling pass of the circuit engine at the clock.
func (e *Engine) replan() error {
	if err := e.eng.Replan(); err != nil {
		return fmt.Errorf("daemon: replan %w", err)
	}
	return nil
}

// advanceTo moves logical time to t, stepping the circuit engine through
// every planned completion and outage edge on the way exactly like the
// simulator's event loop, then drops the outages that have ended.
func (e *Engine) advanceTo(t int64) error {
	for step := 0; ; step++ {
		if step > maxSteps {
			return fmt.Errorf("daemon: advance exceeded %d internal events at t=%.6f", maxSteps, e.Now())
		}
		te := e.eng.NextEvent()
		if te > t {
			break
		}
		e.eng.Step(te)
		if err := e.replan(); err != nil {
			return err
		}
	}
	if t > e.eng.Now() {
		e.eng.Credit(t)
	}
	if e.outages.N > 0 && e.outages.Expire(e.eng.Now()) {
		// No outage left: the fabric is fault-free again and schedule reuse
		// resumes.
		e.eng.SetFaults(nil)
	}
	return nil
}

// foldDigest chains the applied event and resulting schedule state into the
// Engine digest. Rejected events fold too (with applied=false and no plan
// bytes changing), so a recovered WAL replay that re-rejects stays aligned.
//
// The plan folds in canonical order, not slice order: the slice order is
// scheduler-emitted on a live engine but snapshot-canonical on a restored
// one, and both must fingerprint identically.
func (e *Engine) foldDigest(ev Event, applied bool) {
	h := sha256.New()
	h.Write(e.digest[:])
	var buf [8]byte
	putU := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putF := func(v float64) { putU(math.Float64bits(v)) }
	h.Write([]byte(ev.Kind))
	putU(ev.Seq)
	putF(ev.At)
	putU(uint64(int64(ev.Coflow)))
	putU(uint64(int64(ev.Priority)))
	putU(uint64(int64(ev.Port)))
	putF(ev.Duration)
	for _, f := range ev.Flows {
		putU(uint64(int64(f.Src)))
		putU(uint64(int64(f.Dst)))
		putF(f.Bytes)
	}
	if applied {
		putU(1)
	} else {
		putU(0)
	}
	putU(uint64(e.eng.Now()))
	putU(uint64(len(e.eng.Plan())))
	for _, r := range canonicalPlan(e.eng.Plan()) {
		putU(uint64(int64(r.CoflowID)))
		putU(uint64(int64(r.In)))
		putU(uint64(int64(r.Out)))
		putU(uint64(r.Start))
		putU(uint64(r.End))
		putU(uint64(r.Setup))
		putU(uint64(r.Bytes))
	}
	sum := h.Sum(nil)
	copy(e.digest[:], sum)
}

// hashSpec fingerprints a registration's priority and flows, in registration
// order. Snapshots do not carry it for live Coflows — restoreState recomputes
// it from the preserved spec — and completions round-trip it as JSON.
func hashSpec(priority int, flows []FlowSpec) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(int64(priority)))
	for _, f := range flows {
		put(uint64(int64(f.Src)))
		put(uint64(int64(f.Dst)))
		put(math.Float64bits(f.Bytes))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// canonicalPlan returns a copy of the plan in core.CompareReservations
// order, which is independent of how the scheduler emitted the slice.
func canonicalPlan(plan []core.Reservation) []core.Reservation {
	out := slices.Clone(plan)
	slices.SortFunc(out, core.CompareReservations)
	return out
}
