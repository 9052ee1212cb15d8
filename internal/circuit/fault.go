package circuit

import (
	"fmt"
	"math"
	"slices"

	"sunflow/internal/core"
	"sunflow/internal/fault"
	"sunflow/internal/obs"
)

// Outage is one port downtime interval in ticks: [Start, End), End
// core.Forever for a permanent failure.
type Outage struct {
	Port       int
	Start, End int64
}

// Permanent reports whether the outage never ends.
func (o Outage) Permanent() bool { return o.End == core.Forever }

// Faults is the engine's view of a degraded fabric, in ticks: port outages
// indexed by port, plus an optional link model.
type Faults struct {
	byPort  [][]Outage
	anyPerm bool
	// N counts the indexed outages.
	N int
	// links is a compiled fault plan's link model: degraded rates,
	// stragglers and setup failures. Without one (the daemon's declared
	// outages) every circuit runs at the full link rate and establishes on
	// its first attempt.
	links *fault.Model
}

// NewFaults returns an outage index for an n-port fabric, with no outage
// and no link model.
func NewFaults(ports int) *Faults { return &Faults{byPort: make([][]Outage, ports)} }

// ModelFaults converts a compiled fault plan: its outages, each edge through
// core.Nanos (one no tick holds is an error), and its link model.
func ModelFaults(m *fault.Model) (*Faults, error) {
	f := NewFaults(m.Ports())
	f.links = m
	for port := range f.byPort {
		for _, og := range m.Outages(port) {
			start, err := core.Nanos(og.Start)
			end := int64(core.Forever)
			if err == nil && !og.Permanent() {
				end, err = core.Nanos(og.End)
			}
			if err != nil {
				return nil, fmt.Errorf("circuit: outage on port %d: %w", port, err)
			}
			f.Add(Outage{Port: port, Start: start, End: end})
		}
	}
	return f, nil
}

// Add indexes one outage.
func (f *Faults) Add(og Outage) {
	f.byPort[og.Port] = append(f.byPort[og.Port], og)
	f.N++
	f.anyPerm = f.anyPerm || og.Permanent()
}

// Expire drops the transient outages that ended before now — no block,
// boundary or quarantine check reads them again — and reports whether that
// emptied the index.
func (f *Faults) Expire(now int64) bool {
	for port, ogs := range f.byPort {
		kept := ogs[:0]
		for _, og := range ogs {
			if og.End >= now {
				kept = append(kept, og)
			}
		}
		f.N -= len(ogs) - len(kept)
		f.byPort[port] = kept
	}
	return f.N == 0
}

// Outages returns the downtime intervals of one port.
func (f *Faults) Outages(port int) []Outage { return f.byPort[port] }

// NextBoundary returns the first outage start or finite end strictly after
// t, or core.Forever.
func (f *Faults) NextBoundary(t int64) int64 {
	next := int64(core.Forever)
	for _, ogs := range f.byPort {
		for _, og := range ogs {
			if og.Start > t {
				next = min(next, og.Start)
			}
			if og.End > t {
				next = min(next, og.End)
			}
		}
	}
	return next
}

// PermanentFrom returns the earliest permanent-outage start on the port, or
// core.Forever.
func (f *Faults) PermanentFrom(port int) int64 {
	from := int64(core.Forever)
	for _, og := range f.byPort[port] {
		if og.Permanent() {
			from = min(from, og.Start)
		}
	}
	return from
}

// setup plays out one circuit establishment of the given hold slot and δ:
// it returns the effective setup (slot when the circuit never establishes)
// and the offsets at which failed attempts finished. The link model draws in
// seconds; every offset is at most the slot, which a tick holds.
func (f *Faults) setup(coflowID, src, dst int, slot, delta int64) (bool, int64, []int64) {
	if f.links == nil {
		return true, delta, nil
	}
	out := f.links.Setup(coflowID, src, dst, core.Seconds(slot), core.Seconds(delta))
	setup, _ := core.Nanos(out.Setup)
	var retries []int64
	for _, r := range out.Retries {
		off, _ := core.Nanos(r)
		retries = append(retries, off)
	}
	return out.Established, setup, retries
}

// SetFaults installs the fault view; nil restores the fault-free fabric.
// Faulted passes never reuse cached schedules, so installing a view drops
// the cache.
func (e *Engine) SetFaults(f *Faults) {
	e.faults = f
	if f != nil {
		e.dropCache()
	}
}

// rate returns the effective bandwidth of the reservation's flow in bits/s:
// the link rate, scaled down on a degraded link.
func (e *Engine) rate(r *core.Reservation) float64 {
	if e.faults == nil || e.faults.links == nil {
		return e.cfg.LinkBps
	}
	return e.cfg.LinkBps * e.faults.links.RateFactor(r.CoflowID, r.In, r.Out)
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
func (e *Engine) establishFaulty(r *core.Reservation) []int64 {
	established, setup, retries := e.faults.setup(r.CoflowID, r.In, r.Out, r.End-r.Start, r.Setup)
	bps := e.rate(r)
	if established && len(retries) == 0 && bps == e.cfg.LinkBps {
		return nil
	}
	if o := e.cfg.Obs; o != nil {
		o.CircuitRetries.Add(int64(len(retries)))
		o.RetrySeconds.Add(core.Seconds(setup - r.Setup))
	}
	r.Setup = setup
	if !established {
		r.Bytes = 0
	} else {
		r.Bytes = min(r.Bytes, max(0, int64(math.Ceil(float64(r.End-r.TransmitStart())*bps/8e9))))
	}
	return retries
}

// syncFaults applies every outage boundary in (now, upTo]: port up/down
// events are emitted and circuits in flight across a failing port are
// truncated at the failure instant.
func (e *Engine) syncFaults(upTo int64) {
	for t := e.now; ; {
		bt := e.faults.NextBoundary(t)
		if bt > upTo {
			return
		}
		t = bt
		o := e.cfg.Obs
		var down []Outage
		for port := 0; port < e.cfg.Ports; port++ {
			for _, og := range e.faults.Outages(port) {
				if og.Start == bt {
					down = append(down, og)
				}
				if og.End == bt && o.TraceEnabled() {
					o.Emit(obs.Event{T: core.Seconds(bt), Kind: obs.KindPortUp, Coflow: -1, Src: og.Port, Dst: -1})
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
func (e *Engine) PortDown(og Outage) { e.portDown(og, e.now) }

func (e *Engine) portDown(og Outage, bt int64) {
	if o := e.cfg.Obs; o != nil {
		o.PortDowns.Inc()
		if o.TraceEnabled() {
			dur := 0.0
			if !og.Permanent() {
				dur = core.Seconds(og.End - og.Start)
			}
			o.Emit(obs.Event{T: core.Seconds(bt), Kind: obs.KindPortDown, Coflow: -1, Src: og.Port, Dst: -1, Dur: dur})
		}
	}
	e.truncatePort(og.Port, bt)
}

// truncatePort invalidates the in-flight portion of every established circuit
// touching a port that just failed: the circuit is released at bt, its
// undelivered capacity returns to the replanner, and the counters are
// corrected for the hold time that will never happen. Established circuits
// are due, so it walks the due set in credit's order.
func (e *Engine) truncatePort(port int, bt int64) {
	o := e.cfg.Obs
	for _, idx := range e.due(bt) {
		r := &e.plan[idx]
		if r.In != port && r.Out != port {
			continue
		}
		// Only circuits already established and still holding past bt; the
		// replan following this boundary discards un-established ones.
		if r.Start >= bt || r.End <= bt {
			continue
		}
		delivered := r.Delivered(bt, e.rate(r))
		if o != nil {
			cut := core.Seconds(bt) - core.Seconds(r.End)
			o.HoldSeconds.Add(cut)
			o.PlannedBytes.Add(float64(delivered - r.Bytes))
			o.InBusySeconds.Add(r.In, cut)
			o.OutBusySeconds.Add(r.Out, cut)
			if o.TraceEnabled() {
				o.Emit(obs.Event{T: core.Seconds(bt), Kind: obs.KindCircuitDown, Coflow: r.CoflowID, Src: r.In, Dst: r.Out})
			}
		}
		// What it carried by bt is all it ever delivers, so Delivered stays
		// continuous across the cut.
		r.End, r.Bytes = bt, delivered
		if r.Setup > bt-r.Start {
			// The port died during reconfiguration: the truncated hold is all
			// setup and the circuit never carried a byte.
			if o != nil {
				o.SetupSeconds.Add(core.Seconds((bt - r.Start) - r.Setup))
			}
			r.Setup = bt - r.Start
		}
	}
}

// repairTable seeds the freshly reset table with the locked circuits
// defensively — a circuit that no longer fits is invalidated rather than
// crashing the run, its undelivered bytes still in Rem — then blocks every
// port interval a fault keeps down. It returns the circuits kept and their
// flow positions (lockedAt is aligned with locked).
func (e *Engine) repairTable(locked []core.Reservation, lockedAt []int32, now int64) ([]core.Reservation, []int32) {
	fsp := e.cfg.Prof.Start("fault.repair")
	defer fsp.Finish()
	kept, keptAt := locked[:0], lockedAt[:0]
	for i, r := range locked {
		if e.prt.TryReserve(r) == nil {
			kept = append(kept, r)
			keptAt = append(keptAt, lockedAt[i])
		}
	}
	for port := 0; port < e.cfg.Ports; port++ {
		for _, og := range e.faults.Outages(port) {
			if og.End > now {
				e.prt.Block(port, max(og.Start, now), og.End)
			}
		}
	}
	return kept, keptAt
}

// spliceFlow re-bases the plan's flow positions after flow ki of Coflow id
// left its Keys: the flow's own circuits get −1, later flows move down one.
func (e *Engine) spliceFlow(id int, ki int32) {
	for i := range e.plan {
		if e.plan[i].CoflowID != id {
			continue
		}
		switch at := e.flowAt[i]; {
		case at == ki:
			e.flowAt[i] = -1
		case at > ki:
			e.flowAt[i] = at - 1
		}
	}
}

// quarantine strands every live flow whose source or destination port is
// permanently dead as of now.
func (e *Engine) quarantine(now int64) {
	if !e.faults.anyPerm {
		return
	}
	for _, id := range e.SortedIDs() {
		e.strandFlows(e.live[id], now, now)
	}
}

// strandFlows removes from the live Coflow, in (Src, Dst) order, every
// unfinished flow touching a port that fails permanently by dead, reporting
// each to the sink. The flow is spliced out of Keys and Rem together and the
// plan's flow positions are re-based, so a later debit of one of its circuits
// finds no entry to touch.
// Quarantine passes dead = now; the repair of last resort when a pass stalls
// against the degraded table passes core.Forever−1, stranding flows on any
// port with a permanent failure anywhere on the horizon. It reports whether
// anything was stranded (false means a stall has another cause).
func (e *Engine) strandFlows(lc *Live, now, dead int64) bool {
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
		e.spliceFlow(lc.ID, int32(i))
		e.cfg.Sink.Strand(lc, k, b, now)
		if o := e.cfg.Obs; o != nil {
			o.FlowsStranded.Inc()
			o.StrandedBytes.Add(float64(b))
			if o.TraceEnabled() {
				o.Emit(obs.Event{T: core.Seconds(now), Kind: obs.KindFlowStranded, Coflow: lc.ID, Src: k.Src, Dst: k.Dst, Bytes: float64(b)})
			}
		}
	}
	if any {
		e.mayRetire(lc)
	}
	return any
}
