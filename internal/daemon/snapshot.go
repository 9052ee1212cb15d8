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
	"sunflow/internal/fault"
)

// This file encodes and restores Engine state for checkpoints. Two rules make
// the round trip bit-exact:
//
//   - Every map is serialized as a slice sorted by its key, so the same state
//     always produces the same bytes (the smoke test diffs snapshots).
//   - Floats ride through encoding/json untouched — Go emits the shortest
//     representation that round-trips float64 exactly — except ±Inf, which
//     JSON cannot carry; infFloat spells those as strings.
//   - Bytes are whole and written as JSON numbers. Snapshots from builds
//     that kept fractional bytes (a base field, fractional rem and plan
//     bytes) still load: base is ignored and bytes are rounded (loadBytes,
//     loadRem).
//
// Notably the PRT itself is never serialized: every replan rebuilds it from
// the plan's locked reservations, so the plan slice is the whole truth.

// infFloat is a float64 whose JSON form survives ±Inf.
type infFloat float64

// MarshalJSON encodes ±Inf as the strings "+inf"/"-inf".
func (f infFloat) MarshalJSON() ([]byte, error) {
	switch {
	case math.IsInf(float64(f), 1):
		return []byte(`"+inf"`), nil
	case math.IsInf(float64(f), -1):
		return []byte(`"-inf"`), nil
	}
	return json.Marshal(float64(f))
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (f *infFloat) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"+inf"`:
		*f = infFloat(math.Inf(1))
		return nil
	case `"-inf"`:
		*f = infFloat(math.Inf(-1))
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = infFloat(v)
	return nil
}

// flowBytes is one (flow, bytes) pair of a serialized demand map; Bytes is
// whole when written, float so that older fractional snapshots decode.
type flowBytes struct {
	Src   int     `json:"src"`
	Dst   int     `json:"dst"`
	Bytes float64 `json:"bytes"`
}

// flowTime is one (flow, instant) pair of a serialized finish map.
type flowTime struct {
	Src int     `json:"src"`
	Dst int     `json:"dst"`
	T   float64 `json:"t"`
}

// liveState is one live Coflow in a snapshot.
type liveState struct {
	ID            int         `json:"id"`
	Arrival       float64     `json:"arrival"`
	Priority      int         `json:"priority,omitempty"`
	Spec          []FlowSpec  `json:"spec"`
	Rem           []flowBytes `json:"rem"`
	FlowFinish    []flowTime  `json:"flow_finish,omitempty"`
	Finish        infFloat    `json:"finish"`
	Switches      int         `json:"switches,omitempty"`
	Stranded      bool        `json:"stranded,omitempty"`
	StrandedBytes float64     `json:"stranded_bytes,omitempty"`
}

// doneState is one completed Coflow in a snapshot.
type doneState struct {
	ID int `json:"id"`
	Completion
}

// outageState is one declared outage in a snapshot.
type outageState struct {
	Port      int     `json:"port"`
	Start     float64 `json:"start"`
	End       float64 `json:"end,omitempty"`
	Permanent bool    `json:"permanent,omitempty"`
}

// planEntry is one plan reservation in a snapshot, encoded as a
// core.Reservation. Its Bytes shadows the embedded whole-byte field, so that
// plan bytes written fractional by older builds decode.
type planEntry struct {
	core.Reservation
	Bytes float64
}

// engineState is the serializable whole of an Engine: applying it to a fresh
// Engine of the same EngineConfig reproduces the source bit-for-bit.
type engineState struct {
	Now     float64       `json:"now"`
	Live    []liveState   `json:"live"`
	Plan    []planEntry   `json:"plan"`
	Outages []outageState `json:"outages,omitempty"`
	Done    []doneState   `json:"done"`
	Digest  string        `json:"digest"`
	Replans uint64        `json:"replans"`
}

// State exports the Engine for a checkpoint.
func (e *Engine) State() engineState {
	plan := canonicalPlan(e.eng.Plan())
	st := engineState{
		Now:     e.Now(),
		Live:    make([]liveState, 0, e.eng.Len()),
		Plan:    make([]planEntry, len(plan)),
		Done:    make([]doneState, 0, len(e.done)),
		Digest:  hex.EncodeToString(e.digest[:]),
		Replans: e.eng.Passes(),
	}
	for _, id := range e.eng.SortedIDs() {
		lc := e.eng.Lookup(id)
		ls := liveState{
			ID:            lc.ID,
			Arrival:       lc.Arrival,
			Priority:      lc.Priority,
			Spec:          append([]FlowSpec(nil), e.specs[id].flows...),
			Rem:           flowBytesOf(lc.Keys, lc.Rem),
			FlowFinish:    flowTimesIn(lc.Keys, lc.FlowFinish),
			Finish:        infFloat(lc.Finish),
			Switches:      lc.Switches,
			Stranded:      lc.Stranded,
			StrandedBytes: float64(lc.StrandedBytes),
		}
		st.Live = append(st.Live, ls)
	}
	for i, r := range plan {
		st.Plan[i] = planEntry{Reservation: r, Bytes: float64(r.Bytes)}
	}
	doneIDs := make([]int, 0, len(e.done))
	for id := range e.done {
		doneIDs = append(doneIDs, id)
	}
	sort.Ints(doneIDs)
	for _, id := range doneIDs {
		st.Done = append(st.Done, doneState{ID: id, Completion: e.done[id]})
	}
	for _, ogs := range e.outages.byPort {
		for _, og := range ogs {
			os := outageState{Port: og.Port, Start: og.Start}
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
			FlowFinish:    make(map[fabric.FlowKey]float64, len(ls.FlowFinish)),
			Finish:        float64(ls.Finish),
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
	outages := newOutageIndex(e.cfg.Ports)
	for _, os := range st.Outages {
		if os.Port < 0 || os.Port >= e.cfg.Ports {
			return fmt.Errorf("daemon: snapshot outage names port %d outside [0,%d)", os.Port, e.cfg.Ports)
		}
		end := os.End
		if os.Permanent {
			end = math.Inf(1)
		}
		outages.add(fault.Outage{Port: os.Port, Start: os.Start, End: end})
	}
	plan := make([]core.Reservation, len(st.Plan))
	for i, pe := range st.Plan {
		plan[i] = pe.Reservation
		plan[i].Bytes = loadBytes(pe.Bytes)
	}
	e.eng.Restore(st.Now, live, plan, st.Replans)
	e.specs = specs
	e.outages = outages
	if outages.n > 0 {
		e.eng.SetFaults(&e.outages)
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
func flowTimesIn(keys []fabric.FlowKey, m map[fabric.FlowKey]float64) []flowTime {
	out := make([]flowTime, 0, len(m))
	for _, k := range keys {
		if t, ok := m[k]; ok {
			out = append(out, flowTime{Src: k.Src, Dst: k.Dst, T: t})
		}
	}
	return out
}
