package sim

import (
	"errors"
	"fmt"
	"math"

	"sunflow/internal/circuit"
	"sunflow/internal/coflow"
	"sunflow/internal/core"
	"sunflow/internal/fabric"
	"sunflow/internal/fault"
	"sunflow/internal/obs"
	"sunflow/internal/obs/span"
)

// CircuitOptions configures the online circuit-switched simulation.
type CircuitOptions struct {
	// Ports is the switch port count N.
	Ports int
	// LinkBps is the per-port bandwidth B in bits/s.
	LinkBps float64
	// Delta is the circuit reconfiguration delay δ in seconds.
	Delta float64
	// Policy orders live Coflows at each reschedule; nil selects
	// shortest-Coflow-first by the remaining packet-switched lower bound,
	// the policy of §5.4.
	Policy core.Policy
	// Order is the intra-Coflow reservation ordering.
	Order core.Order
	// Seed drives RandomOrder.
	Seed int64
	// Fair optionally enables the starvation-avoidance windows of §4.2; its
	// parameters are ticks (core.Nanos).
	Fair *core.FairWindows
	// Obs optionally records metrics and trace events. Nil disables all
	// instrumentation at the cost of one nil-check per site.
	Obs *obs.Observer
	// Prof optionally records wall-clock profiling spans ("sim.run",
	// "sim.credit", "sched.pass", "fault.repair" and the nested scheduler
	// phases) on the calling goroutine's span stack. Spans never touch
	// simulated time; nil disables profiling.
	Prof *span.Stack
	// Faults optionally injects port outages, circuit-setup failures and
	// degraded link rates. Nil — or a plan whose IsZero reports true — leaves
	// the simulation bit-identical to the fault-free baseline.
	Faults *fault.Plan
	// OnArchive, when non-nil, switches the simulator into bounded-memory
	// archive mode: each Coflow that completes is handed to the callback as a
	// compact Archived record and the Result maps (CCT, Finish, SwitchCount)
	// stay empty, so resident memory tracks the peak number of concurrent
	// Coflows instead of the trace length. Records arrive in retirement
	// order (finish instant, ties by id). Stranded Coflows still retire into
	// Result.Partial, never through the callback. The callback runs on the
	// simulation goroutine and must not retain the record's address.
	OnArchive func(Archived)

	// faultModel, when set, overrides the Faults plan with a pre-compiled —
	// and possibly port-restricted — model. Only the sharded runner sets it,
	// to give each port-disjoint component a private Model scoped to its own
	// ports (the Model's setup-attempt counters are mutable, so it can never
	// be shared across concurrently running components).
	faultModel *fault.Model
}

// ErrReplan wraps a scheduler failure during an online reschedule. It used to
// be a panic; now the simulator surfaces it to the caller together with the
// Coflow that could not be placed.
var ErrReplan = errors.New("sim: replan failed")

// RunCircuit simulates the Coflows on a Sunflow-scheduled optical circuit
// switch. Following §6, the schedule is recomputed only on Coflow arrivals
// and completions (and at fair-window boundaries when starvation avoidance
// is enabled): at each such instant, circuits already established keep their
// reservations — non-preemption — while reservations that have not yet
// begun are discarded and replanned against the remaining demand of all
// live Coflows in priority order.
func RunCircuit(coflows []*coflow.Coflow, opts CircuitOptions) (Result, error) {
	if _, err := checkCircuitOptions(opts); err != nil {
		return newResult(), err
	}
	arrivalsOrder, _, err := prepare(coflows, opts.Ports)
	if err != nil {
		return newResult(), err
	}
	return runCircuit(&sliceSource{cs: arrivalsOrder}, opts, false)
}

// checkCircuitOptions rejects unusable options before any simulation state is
// built, preserving the historical error precedence of RunCircuit (a bad link
// rate reports before a bad workload). It returns δ in ticks.
func checkCircuitOptions(opts CircuitOptions) (int64, error) {
	if opts.LinkBps <= 0 {
		return 0, fmt.Errorf("sim: link bandwidth must be positive, got %v", opts.LinkBps)
	}
	delta, err := core.Nanos(opts.Delta)
	if err != nil {
		return 0, fmt.Errorf("sim: reconfiguration delay: %w", err)
	}
	if opts.Fair != nil {
		return delta, opts.Fair.Validate(delta)
	}
	return delta, nil
}

func newResult() Result {
	return Result{CCT: map[int]float64{}, Finish: map[int]float64{}, SwitchCount: map[int]int{}}
}

// runCircuit is the shared event loop behind RunCircuit (pre-validated slice,
// checkDups false) and RunCircuitSource (lazy validation, checkDups true):
// it feeds arrivals from src into the circuit engine and steps the engine to
// every event instant in between. The loop holds at most one unadmitted
// Coflow from src at a time.
func runCircuit(src Source, opts CircuitOptions, checkDups bool) (Result, error) {
	sp := opts.Prof.Start("sim.run").Attr("sim", "circuit")
	defer sp.Finish()
	res := newResult()
	delta, err := checkCircuitOptions(opts)
	if err != nil {
		return res, err
	}
	fm := opts.faultModel
	if fm == nil {
		if fm, err = opts.Faults.Compile(opts.Ports); err != nil {
			return res, fmt.Errorf("sim: %w", err)
		}
	}
	s := &circuitState{opts: opts, res: &res, src: src, checkDups: checkDups}
	s.eng = circuit.New(circuit.Config{
		Ports:   opts.Ports,
		LinkBps: opts.LinkBps,
		Delta:   delta,
		Policy:  opts.Policy,
		Order:   opts.Order,
		Seed:    opts.Seed,
		Fair:    opts.Fair,
		Obs:     opts.Obs,
		Prof:    opts.Prof,
		Sink:    s,
	}, math.MinInt64)
	if o := opts.Obs; o != nil {
		defer func() { o.SimEvents.Add(int64(res.Events)) }()
	}

	t := int64(0)
	c0, err := s.peek()
	if err != nil {
		return res, err
	}
	if c0 != nil {
		t = s.nextAt
	}
	if fm != nil {
		faults, err := circuit.ModelFaults(fm)
		if err != nil {
			return res, fmt.Errorf("sim: %w", err)
		}
		if o := opts.Obs; o.TraceEnabled() {
			o.Emit(obs.Event{T: core.Seconds(t), Kind: obs.KindFaultInject, Coflow: -1, Src: -1, Dst: -1})
		}
		s.eng.SetFaults(faults)
	}
	if err := s.step(t); err != nil {
		return res, err
	}
	for ev := 0; ; ev++ {
		if ev > maxEvents {
			return res, fmt.Errorf("sim: circuit simulation exceeded %d events", maxEvents)
		}
		res.Events = ev
		// Next event: an arrival, or the engine's next planned completion,
		// fair window boundary or port-outage edge. An empty fabric jumps
		// straight to the next arrival.
		nxt, err := s.peek()
		if err != nil {
			return res, err
		}
		t = core.Forever
		if nxt != nil {
			t = s.nextAt
		}
		if s.eng.Len() == 0 {
			if nxt == nil {
				s.eng.CloseTrace()
				return res, nil
			}
		} else if t = min(t, s.eng.NextEvent()); t == core.Forever {
			return res, fmt.Errorf("%w at t=%.6f (%d live coflows)", ErrStalled, core.Seconds(s.eng.Now()), s.eng.Len())
		}
		if err := s.step(t); err != nil {
			return res, err
		}
	}
}

// step advances the engine to the event instant t, admits the arrivals due
// there and replans.
func (s *circuitState) step(t int64) error {
	s.eng.Step(t)
	if err := s.admit(t); err != nil {
		return err
	}
	if err := s.eng.Replan(); err != nil {
		return fmt.Errorf("%w: %w", ErrReplan, err)
	}
	return nil
}

// circuitState is the simulator's side of a circuit run: the lookahead on
// the Coflow source and the Result the engine's retirements land in.
type circuitState struct {
	opts CircuitOptions
	res  *Result
	eng  *circuit.Engine
	// src streams the not-yet-admitted workload in (Arrival, ID) order; next
	// is the single-Coflow lookahead, nextAt its arrival in ticks, and
	// srcDone marks exhaustion. Holding one record instead of the whole
	// pending slice is what bounds resident memory on streamed runs.
	src     Source
	next    *coflow.Coflow
	nextAt  int64
	srcDone bool
	// checkDups enables admission-time duplicate-id detection on the
	// streamed path (the slice path already rejected duplicates in prepare).
	checkDups bool
}

// peek returns the next unadmitted Coflow without consuming it, pulling at
// most one record from the source and converting its arrival to ticks once
// (nextAt). Source errors (read failures, invalid or out-of-order Coflows on
// the streamed path, an arrival no tick holds) surface here, at the
// simulated instant the record is first needed.
func (s *circuitState) peek() (*coflow.Coflow, error) {
	if s.next == nil && !s.srcDone {
		c, err := s.src.Next()
		if err != nil {
			return nil, err
		}
		if c == nil {
			s.srcDone = true
		} else {
			if s.nextAt, err = core.Nanos(c.Arrival); err != nil {
				return nil, fmt.Errorf("sim: coflow %d arrival: %w", c.ID, err)
			}
			s.next = c
		}
	}
	return s.next, nil
}

// admit moves Coflows arriving at or before now into the live set.
func (s *circuitState) admit(now int64) error {
	for {
		c, err := s.peek()
		if err != nil {
			return err
		}
		if c == nil || s.nextAt > now {
			return nil
		}
		s.next = nil
		if s.checkDups {
			// The ordered-source contract catches equal-arrival duplicates;
			// this catches a duplicate arriving while its twin is live or
			// already retained in the Result maps. In OnArchive mode a
			// duplicate arriving after its twin retired is the caller's
			// contract to prevent (nothing is retained to detect it against).
			_, inFinish := s.res.Finish[c.ID]
			_, inCCT := s.res.CCT[c.ID]
			if s.eng.Lookup(c.ID) != nil || inFinish || inCCT {
				return fmt.Errorf("sim: duplicate coflow id %d", c.ID)
			}
		}
		if !s.eng.Admit(c, s.nextAt, 0) {
			recordInstant(s.res, s.opts.OnArchive, c, s.nextAt)
		}
	}
}

// recordInstant records a Coflow without a whole byte of demand, which
// completes at its arrival tick: into the archive callback when set, else
// the Result maps.
func recordInstant(res *Result, onArchive func(Archived), c *coflow.Coflow, arrival int64) {
	at := core.Seconds(arrival)
	if onArchive != nil {
		onArchive(Archived{ID: c.ID, Arrival: at, Finish: at, Bytes: c.TotalBytes()})
	} else {
		res.CCT[c.ID] = 0
		res.Finish[c.ID] = at
	}
}

// Retire records a drained Coflow: into the archive callback or the Result
// maps, or — when it lost flows to a permanent outage — into the
// PartialResult without a CCT. The CCT is Seconds(finish − arrival), taken
// in ticks.
func (s *circuitState) Retire(lc *circuit.Live, finish int64) {
	if s.opts.OnArchive == nil && lc.Switches > 0 {
		s.res.SwitchCount[lc.ID] = lc.Switches
	}
	fin, cct := core.Seconds(finish), core.Seconds(finish-lc.Arrival)
	switch {
	case lc.Stranded:
		partialOf(s.res).Finish[lc.ID] = fin
	case s.opts.OnArchive != nil:
		s.opts.OnArchive(Archived{
			ID:       lc.ID,
			Arrival:  core.Seconds(lc.Arrival),
			Finish:   fin,
			CCT:      cct,
			Bytes:    lc.Bytes,
			Switches: lc.Switches,
		})
	default:
		s.res.Finish[lc.ID] = fin
		s.res.CCT[lc.ID] = cct
	}
}

// Strand records one quarantined flow in the PartialResult.
func (s *circuitState) Strand(lc *circuit.Live, k fabric.FlowKey, bytes int64, at int64) {
	p := partialOf(s.res)
	p.Stranded = append(p.Stranded, StrandedFlow{Coflow: lc.ID, Src: k.Src, Dst: k.Dst, Bytes: float64(bytes), At: core.Seconds(at)})
	p.Bytes += float64(bytes)
}
