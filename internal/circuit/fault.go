package circuit

import (
	"math"
	"slices"

	"sunflow/internal/core"
	"sunflow/internal/fault"
	"sunflow/internal/obs"
)

// Faults is the engine's view of a degraded fabric. *fault.Model (the
// simulator's compiled fault plan) and the daemon's declared-outage index
// both satisfy it.
type Faults interface {
	// Outages returns the downtime intervals of one port.
	Outages(port int) []fault.Outage
	// NextBoundary returns the first outage start or finite end strictly
	// after t (beyond TimeEps), or +Inf.
	NextBoundary(t float64) float64
	// AnyPermanent reports whether any port fails permanently.
	AnyPermanent() bool
	// PermanentFrom returns the earliest permanent-outage start on the port,
	// or +Inf.
	PermanentFrom(port int) float64
	// RateFactor returns the rate multiplier of the Coflow's (src, dst) flow.
	RateFactor(coflowID, src, dst int) float64
	// Setup plays out one circuit establishment of the given hold slot.
	Setup(coflowID, src, dst int, slot, delta float64) fault.SetupOutcome
}

// SetFaults installs the fault view; nil restores the fault-free fabric.
// Faulted passes never reuse cached schedules, so installing a view drops
// the cache.
func (e *Engine) SetFaults(f Faults) {
	e.faults = f
	if f != nil {
		e.dropCache()
	}
}

// rate returns the effective bandwidth of the reservation's flow in bits/s:
// the link rate, scaled down on a degraded link.
func (e *Engine) rate(r *core.Reservation) float64 {
	if e.faults == nil {
		return e.cfg.LinkBps
	}
	return e.cfg.LinkBps * e.faults.RateFactor(r.CoflowID, r.In, r.Out)
}

// establishFaulty consults the fault view at the instant a circuit pays its
// setup: failed attempts each re-pay δ (with backoff), stretching the
// effective setup and shrinking the capacity the hold has left, and a
// degraded link carries less than the circuit was sized for. Bytes is set
// here, once, to what the circuit will actually deliver, so delivery still
// ends at exactly Bytes and the shortfall stays in Rem to be replanned. The
// capacity rounds up to a whole byte: an established circuit always carries
// at least one, so a flow's last bytes drain even on a slow link. It
// mutates the reservation before the establishment is counted, so counters
// and the circuit_up event see the stretched values, and returns the offsets
// of the failed attempts for circuit_retry events.
func (e *Engine) establishFaulty(r *core.Reservation) []float64 {
	out := e.faults.Setup(r.CoflowID, r.In, r.Out, r.End-r.Start, r.Setup)
	bps := e.rate(r)
	if out.Established && len(out.Retries) == 0 && bps == e.cfg.LinkBps {
		return nil
	}
	if o := e.cfg.Obs; o != nil {
		o.CircuitRetries.Add(int64(len(out.Retries)))
		o.RetrySeconds.Add(out.Setup - r.Setup)
	}
	r.Setup = out.Setup
	if !out.Established {
		r.Bytes = 0
	} else {
		r.Bytes = min(r.Bytes, max(0, int64(math.Ceil((r.End-r.TransmitStart())*bps/8))))
	}
	return out.Retries
}

// syncFaults applies every outage boundary in (now, upTo]: port up/down
// events are emitted and circuits in flight across a failing port are
// truncated at the failure instant.
func (e *Engine) syncFaults(upTo float64) {
	for t := e.now; ; {
		bt := e.faults.NextBoundary(t)
		if math.IsInf(bt, 1) || bt > upTo+TimeEps {
			return
		}
		t = bt
		o := e.cfg.Obs
		var down []fault.Outage
		for port := 0; port < e.cfg.Ports; port++ {
			for _, og := range e.faults.Outages(port) {
				if math.Abs(og.Start-bt) <= TimeEps {
					down = append(down, og)
				}
				if !og.Permanent() && math.Abs(og.End-bt) <= TimeEps && o.TraceEnabled() {
					o.Emit(obs.Event{T: bt, Kind: obs.KindPortUp, Coflow: -1, Src: og.Port, Dst: -1})
				}
			}
		}
		for _, og := range down {
			e.portDown(og, bt)
		}
	}
}

// PortDown applies an outage declared while already in effect at the engine
// clock: circuits in flight across its port release now.
func (e *Engine) PortDown(og fault.Outage) { e.portDown(og, e.now) }

func (e *Engine) portDown(og fault.Outage, bt float64) {
	if o := e.cfg.Obs; o != nil {
		o.PortDowns.Inc()
		if o.TraceEnabled() {
			dur := 0.0
			if !og.Permanent() {
				dur = og.End - og.Start
			}
			o.Emit(obs.Event{T: bt, Kind: obs.KindPortDown, Coflow: -1, Src: og.Port, Dst: -1, Dur: dur})
		}
	}
	e.truncatePort(og.Port, bt)
}

// truncatePort invalidates the in-flight portion of every established circuit
// touching a port that just failed: the circuit is released at bt, its
// undelivered capacity returns to the replanner, and the counters are
// corrected for the hold time that will never happen. Established circuits
// are due, so it walks the due set in credit's order.
func (e *Engine) truncatePort(port int, bt float64) {
	o := e.cfg.Obs
	for _, idx := range e.due(bt) {
		r := &e.plan[idx]
		if r.In != port && r.Out != port {
			continue
		}
		// Only circuits already established and still holding past bt; the
		// replan following this boundary discards un-established ones.
		if r.Start >= bt-TimeEps || r.End <= bt+TimeEps {
			continue
		}
		delivered := r.Delivered(bt, e.rate(r))
		if o != nil {
			o.HoldSeconds.Add(bt - r.End)
			o.PlannedBytes.Add(float64(delivered - r.Bytes))
			o.InBusySeconds.Add(r.In, bt-r.End)
			o.OutBusySeconds.Add(r.Out, bt-r.End)
			if o.TraceEnabled() {
				o.Emit(obs.Event{T: bt, Kind: obs.KindCircuitDown, Coflow: r.CoflowID, Src: r.In, Dst: r.Out})
			}
		}
		// What it carried by bt is all it ever delivers, so Delivered stays
		// continuous across the cut.
		r.End, r.Bytes = bt, delivered
		if r.Setup > bt-r.Start {
			// The port died during reconfiguration: the truncated hold is all
			// setup and the circuit never carried a byte.
			if o != nil {
				o.SetupSeconds.Add((bt - r.Start) - r.Setup)
			}
			r.Setup = bt - r.Start
		}
	}
}

// repairTable seeds the freshly reset table with the locked circuits
// defensively — a circuit that no longer fits is invalidated rather than
// crashing the run, its undelivered bytes still in Rem — then blocks every
// port interval a fault keeps down. It returns the circuits kept.
func (e *Engine) repairTable(locked []core.Reservation, now float64) []core.Reservation {
	fsp := e.cfg.Prof.Start("fault.repair")
	defer fsp.Finish()
	kept := locked[:0]
	for _, r := range locked {
		if e.prt.TryReserve(r) == nil {
			kept = append(kept, r)
		}
	}
	for port := 0; port < e.cfg.Ports; port++ {
		for _, og := range e.faults.Outages(port) {
			if og.End > now+TimeEps {
				e.prt.Block(port, math.Max(og.Start, now), og.End)
			}
		}
	}
	return kept
}

// quarantine strands every live flow whose source or destination port is
// permanently dead as of now.
func (e *Engine) quarantine(now float64) {
	if !e.faults.AnyPermanent() {
		return
	}
	for _, id := range e.SortedIDs() {
		e.strandFlows(e.live[id], now, now+TimeEps)
	}
}

// strandFlows removes from the live Coflow, in (Src, Dst) order, every
// unfinished flow touching a port that fails permanently by dead, reporting
// each to the sink. The flow is spliced out of Keys and Rem together, so a
// later debit of one of its circuits finds no entry to touch.
// Quarantine passes dead = now; the repair of last resort when a pass stalls
// against the degraded table passes +Inf, stranding flows on any port with a
// permanent failure anywhere on the horizon. It reports whether anything was
// stranded (false means a stall has another cause).
func (e *Engine) strandFlows(lc *Live, now, dead float64) bool {
	any := false
	for i := 0; i < len(lc.Keys); {
		k, b := lc.Keys[i], lc.Rem[i]
		if b == 0 || (e.faults.PermanentFrom(k.Src) > dead && e.faults.PermanentFrom(k.Dst) > dead) {
			i++
			continue
		}
		any = true
		lc.keyOK = false
		lc.Stranded = true
		lc.StrandedBytes += b
		lc.Keys = slices.Delete(lc.Keys, i, i+1)
		lc.Rem = slices.Delete(lc.Rem, i, i+1)
		e.cfg.Sink.Strand(lc, k, b, now)
		if o := e.cfg.Obs; o != nil {
			o.FlowsStranded.Inc()
			o.StrandedBytes.Add(float64(b))
			if o.TraceEnabled() {
				o.Emit(obs.Event{T: now, Kind: obs.KindFlowStranded, Coflow: lc.ID, Src: k.Src, Dst: k.Dst, Bytes: float64(b)})
			}
		}
	}
	if any {
		e.mayRetire(lc)
	}
	return any
}
