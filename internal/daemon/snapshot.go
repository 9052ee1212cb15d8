package daemon

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"sunflow/internal/circuit"
	"sunflow/internal/core"
	"sunflow/internal/fabric"
)

// This file encodes and restores Engine state for checkpoints. Three rules
// make the round trip exact:
//
//   - Every map is serialized as a slice sorted by its key, so the same state
//     always produces the same bytes (the smoke test diffs snapshots).
//   - Instants are integer-nanosecond ticks (version 3). Version-2
//     snapshots wrote float seconds, ±Inf as "+inf"/"-inf"; they still load,
//     each instant converted once through core.Nanos (upgradeV2).
//   - Bytes are whole and written as JSON numbers. Snapshots from builds
//     that kept fractional bytes (a base field, fractional rem and plan
//     bytes) still load: base is ignored and bytes are rounded (loadBytes,
//     loadRem).
//
// Notably the PRT itself is never serialized: every replan rebuilds it from
// the plan's locked reservations, so the plan slice is the whole truth.

// flowBytes is one (flow, bytes) pair of a serialized demand map; Bytes is
// whole when written, float so that older fractional snapshots decode.
type flowBytes struct {
	Src   int     `json:"src"`
	Dst   int     `json:"dst"`
	Bytes float64 `json:"bytes"`
}

// The snapshot types are generic over the instant T: int64 ticks in version
// 3, v2Seconds when reading version 2.

// flowTime is one (flow, instant) pair of a serialized finish map.
type flowTime[T any] struct {
	Src int `json:"src"`
	Dst int `json:"dst"`
	T   T   `json:"t"`
}

// liveState is one live Coflow in a snapshot.
type liveState[T any] struct {
	ID            int           `json:"id"`
	Arrival       T             `json:"arrival"`
	Priority      int           `json:"priority,omitempty"`
	Spec          []FlowSpec    `json:"spec"`
	Rem           []flowBytes   `json:"rem"`
	FlowFinish    []flowTime[T] `json:"flow_finish,omitempty"`
	Finish        T             `json:"finish"`
	Switches      int           `json:"switches,omitempty"`
	Stranded      bool          `json:"stranded,omitempty"`
	StrandedBytes float64       `json:"stranded_bytes,omitempty"`
}

// doneState is one completed Coflow in a snapshot.
type doneState struct {
	ID int `json:"id"`
	Completion
}

// outageState is one declared outage in a snapshot.
type outageState[T any] struct {
	Port      int  `json:"port"`
	Start     T    `json:"start"`
	End       T    `json:"end,omitempty"`
	Permanent bool `json:"permanent,omitempty"`
}

// planEntry is one plan reservation in a snapshot, in the field names of
// core.Reservation. Bytes is float so that plan bytes written fractional by
// older builds decode.
type planEntry[T any] struct {
	CoflowID, In, Out int
	Start, End, Setup T
	Bytes             float64
}

// stateOf is the serializable whole of an Engine: applying it to a fresh
// Engine of the same EngineConfig reproduces the source exactly.
type stateOf[T any] struct {
	Now     T                `json:"now"`
	Live    []liveState[T]   `json:"live"`
	Plan    []planEntry[T]   `json:"plan"`
	Outages []outageState[T] `json:"outages,omitempty"`
	Done    []doneState      `json:"done"`
	Digest  string           `json:"digest"`
	Replans uint64           `json:"replans"`
}

// engineState is the current (version 3) snapshot state.
type engineState = stateOf[int64]

// v2Seconds is a version-2 instant: float seconds, ±Inf spelled as a string.
type v2Seconds float64

// UnmarshalJSON reads a number or "+inf"/"-inf".
func (f *v2Seconds) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"+inf"`:
		*f = v2Seconds(math.Inf(1))
		return nil
	case `"-inf"`:
		*f = v2Seconds(math.Inf(-1))
		return nil
	}
	return json.Unmarshal(b, (*float64)(f))
}

// upgradeV2 converts a version-2 state to ticks: +Inf becomes core.Forever,
// -Inf math.MinInt64, any other instant core.Nanos of it.
func upgradeV2(v2 stateOf[v2Seconds]) (st engineState, err error) {
	tick := func(s v2Seconds) int64 {
		switch {
		case math.IsInf(float64(s), 1):
			return core.Forever
		case math.IsInf(float64(s), -1):
			return math.MinInt64
		}
		t, e := core.Nanos(float64(s))
		if err == nil && e != nil {
			err = fmt.Errorf("daemon: version-2 snapshot: %w", e)
		}
		return t
	}
	st = engineState{Now: tick(v2.Now), Done: v2.Done, Digest: v2.Digest, Replans: v2.Replans}
	for _, ls := range v2.Live {
		l := liveState[int64]{ID: ls.ID, Arrival: tick(ls.Arrival), Priority: ls.Priority, Spec: ls.Spec, Rem: ls.Rem,
			Finish: tick(ls.Finish), Switches: ls.Switches, Stranded: ls.Stranded, StrandedBytes: ls.StrandedBytes}
		for _, ft := range ls.FlowFinish {
			l.FlowFinish = append(l.FlowFinish, flowTime[int64]{Src: ft.Src, Dst: ft.Dst, T: tick(ft.T)})
		}
		st.Live = append(st.Live, l)
	}
	for _, pe := range v2.Plan {
		st.Plan = append(st.Plan, planEntry[int64]{CoflowID: pe.CoflowID, In: pe.In, Out: pe.Out,
			Start: tick(pe.Start), End: tick(pe.End), Setup: tick(pe.Setup), Bytes: pe.Bytes})
	}
	for _, os := range v2.Outages {
		st.Outages = append(st.Outages, outageState[int64]{Port: os.Port, Start: tick(os.Start), End: tick(os.End), Permanent: os.Permanent})
	}
	return st, err
}

// State exports the Engine for a checkpoint.
func (e *Engine) State() engineState {
	plan := canonicalPlan(e.eng.Plan())
	st := engineState{
		Now:     e.eng.Now(),
		Live:    make([]liveState[int64], 0, e.eng.Len()),
		Plan:    make([]planEntry[int64], len(plan)),
		Done:    make([]doneState, 0, len(e.done)),
		Digest:  hex.EncodeToString(e.digest[:]),
		Replans: e.eng.Passes(),
	}
	for _, id := range e.eng.SortedIDs() {
		lc := e.eng.Lookup(id)
		ls := liveState[int64]{
			ID:            lc.ID,
			Arrival:       lc.Arrival,
			Priority:      lc.Priority,
			Spec:          append([]FlowSpec(nil), e.specs[id].flows...),
			Rem:           flowBytesOf(lc.Keys, lc.Rem),
			FlowFinish:    flowTimesIn(lc.Keys, lc.FlowFinish),
			Finish:        lc.Finish,
			Switches:      lc.Switches,
			Stranded:      lc.Stranded,
			StrandedBytes: float64(lc.StrandedBytes),
		}
		st.Live = append(st.Live, ls)
	}
	for i, r := range plan {
		st.Plan[i] = planEntry[int64]{CoflowID: r.CoflowID, In: r.In, Out: r.Out, Start: r.Start, End: r.End, Setup: r.Setup, Bytes: float64(r.Bytes)}
	}
	doneIDs := make([]int, 0, len(e.done))
	for id := range e.done {
		doneIDs = append(doneIDs, id)
	}
	sort.Ints(doneIDs)
	for _, id := range doneIDs {
		st.Done = append(st.Done, doneState{ID: id, Completion: e.done[id]})
	}
	for port := range e.cfg.Ports {
		for _, og := range e.outages.Outages(port) {
			os := outageState[int64]{Port: og.Port, Start: og.Start}
			if og.Permanent() {
				os.Permanent = true
			} else {
				os.End = og.End
			}
			st.Outages = append(st.Outages, os)
		}
	}
	return st
}

// restoreState overwrites the Engine with a checkpointed state. The Engine
// must be freshly constructed for the same EngineConfig.
func (e *Engine) restoreState(st engineState) error {
	digest, err := hex.DecodeString(st.Digest)
	if err != nil || len(digest) != len(e.digest) {
		return fmt.Errorf("daemon: snapshot digest %q malformed", st.Digest)
	}
	live := make([]*circuit.Live, 0, len(st.Live))
	specs := make(map[int]liveSpec, len(st.Live))
	for _, ls := range st.Live {
		if _, dup := specs[ls.ID]; dup {
			return fmt.Errorf("daemon: snapshot lists coflow %d twice", ls.ID)
		}
		specs[ls.ID] = liveSpec{flows: append([]FlowSpec(nil), ls.Spec...), hash: hashSpec(ls.Priority, ls.Spec)}
		lc := &circuit.Live{
			ID:            ls.ID,
			Arrival:       ls.Arrival,
			Priority:      ls.Priority,
			FlowFinish:    make(map[fabric.FlowKey]int64, len(ls.FlowFinish)),
			Finish:        ls.Finish,
			Switches:      ls.Switches,
			Stranded:      ls.Stranded,
			StrandedBytes: loadBytes(ls.StrandedBytes),
		}
		// Rem was serialized in (src, dst) order, so it doubles as the sorted
		// key list; flows stranded before the checkpoint are absent from it,
		// as they are from a live engine's.
		lc.Keys = make([]fabric.FlowKey, len(ls.Rem))
		lc.Rem = make([]int64, len(ls.Rem))
		for i, fb := range ls.Rem {
			lc.Keys[i] = fabric.FlowKey{Src: fb.Src, Dst: fb.Dst}
			lc.Rem[i] = loadRem(fb.Bytes)
		}
		for _, ft := range ls.FlowFinish {
			lc.FlowFinish[fabric.FlowKey{Src: ft.Src, Dst: ft.Dst}] = ft.T
		}
		live = append(live, lc)
	}
	done := make(map[int]Completion, len(st.Done))
	for _, ds := range st.Done {
		done[ds.ID] = ds.Completion
	}
	outages := circuit.NewFaults(e.cfg.Ports)
	for _, os := range st.Outages {
		if os.Port < 0 || os.Port >= e.cfg.Ports {
			return fmt.Errorf("daemon: snapshot outage names port %d outside [0,%d)", os.Port, e.cfg.Ports)
		}
		end := os.End
		if os.Permanent {
			end = core.Forever
		}
		outages.Add(circuit.Outage{Port: os.Port, Start: os.Start, End: end})
	}
	plan := make([]core.Reservation, len(st.Plan))
	for i, pe := range st.Plan {
		plan[i] = core.Reservation{CoflowID: pe.CoflowID, In: pe.In, Out: pe.Out, Start: pe.Start, End: pe.End, Setup: pe.Setup, Bytes: loadBytes(pe.Bytes)}
	}
	e.eng.Restore(st.Now, live, plan, st.Replans)
	e.specs = specs
	e.outages = outages
	if outages.N > 0 {
		e.eng.SetFaults(e.outages)
	}
	e.done = done
	copy(e.digest[:], digest)
	return nil
}

// flowBytesOf serializes a per-flow slice aligned with the live Coflow's
// (src, dst)-sorted keys.
func flowBytesOf(keys []fabric.FlowKey, v []int64) []flowBytes {
	out := make([]flowBytes, len(keys))
	for i, k := range keys {
		out[i] = flowBytes{Src: k.Src, Dst: k.Dst, Bytes: float64(v[i])}
	}
	return out
}

// loadBytes reads a snapshot byte count as whole bytes. Whole counts load
// unchanged; a fractional one comes from a build that kept fractional bytes
// and is rounded.
func loadBytes(b float64) int64 { return int64(math.Round(b)) }

// loadRem reads a flow's remainder. A fractional remainder at or below one
// byte comes from a build that counted such a flow as done, so it loads as 0;
// a whole one, a 1-byte flow included, loads unchanged.
func loadRem(b float64) int64 {
	if b <= 1 && b != math.Trunc(b) {
		return 0
	}
	return loadBytes(b)
}

// flowTimesIn serializes the flow finish instants recorded for keys, in keys
// order.
func flowTimesIn(keys []fabric.FlowKey, m map[fabric.FlowKey]int64) []flowTime[int64] {
	out := make([]flowTime[int64], 0, len(m))
	for _, k := range keys {
		if t, ok := m[k]; ok {
			out = append(out, flowTime[int64]{Src: k.Src, Dst: k.Dst, T: t})
		}
	}
	return out
}
