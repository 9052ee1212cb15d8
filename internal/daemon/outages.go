package daemon

import (
	"math"

	"sunflow/internal/circuit"
	"sunflow/internal/fault"
)

// outageIndex is the Engine's fault view (circuit.Faults): the declared
// outages that can still affect scheduling, indexed by port. A transient
// outage is dropped once it has ended — no block, boundary or quarantine
// check reads it after that — so the index, and the snapshots that carry it,
// hold only the outages in effect plus the permanent ones.
type outageIndex struct {
	byPort  [][]fault.Outage
	anyPerm bool
	// n counts the retained outages.
	n int
}

func newOutageIndex(ports int) outageIndex {
	return outageIndex{byPort: make([][]fault.Outage, ports)}
}

func (x *outageIndex) add(og fault.Outage) {
	x.byPort[og.Port] = append(x.byPort[og.Port], og)
	x.n++
	x.anyPerm = x.anyPerm || og.Permanent()
}

// expire drops the transient outages that ended at or before now − TimeEps.
// It reports whether that emptied the index.
func (x *outageIndex) expire(now float64) bool {
	if x.n == 0 {
		return false
	}
	for port, ogs := range x.byPort {
		kept := ogs[:0]
		for _, og := range ogs {
			if og.Permanent() || og.End > now-circuit.TimeEps {
				kept = append(kept, og)
			}
		}
		x.n -= len(ogs) - len(kept)
		x.byPort[port] = kept
	}
	return x.n == 0
}

func (x *outageIndex) Outages(port int) []fault.Outage { return x.byPort[port] }

func (x *outageIndex) NextBoundary(t float64) float64 {
	next := math.Inf(1)
	for _, ogs := range x.byPort {
		for _, og := range ogs {
			if og.Start > t+circuit.TimeEps {
				next = math.Min(next, og.Start)
			}
			if !og.Permanent() && og.End > t+circuit.TimeEps {
				next = math.Min(next, og.End)
			}
		}
	}
	return next
}

func (x *outageIndex) AnyPermanent() bool { return x.anyPerm }

func (x *outageIndex) PermanentFrom(port int) float64 {
	from := math.Inf(1)
	for _, og := range x.byPort[port] {
		if og.Permanent() {
			from = math.Min(from, og.Start)
		}
	}
	return from
}

// Declared outages only take ports down: every circuit runs at the full link
// rate and establishes on its first attempt.

func (x *outageIndex) RateFactor(int, int, int) float64 { return 1 }

func (x *outageIndex) Setup(_, _, _ int, _, delta float64) fault.SetupOutcome {
	return fault.SetupOutcome{Established: true, Setup: delta}
}
