package daemon

import (
	"encoding/json"
	"testing"
)

// snapshotSize is the encoded size of the Engine's checkpoint state.
func snapshotSize(t *testing.T, e *Engine) int {
	t.Helper()
	raw, err := json.Marshal(e.State())
	if err != nil {
		t.Fatal(err)
	}
	return len(raw)
}

// TestExpiredOutagesAreDropped: transient outages that have ended leave
// nothing behind. After 10k of them no outage is retained and the snapshot
// has not grown with the fault count (only numeric fields such as the clock
// change width).
func TestExpiredOutagesAreDropped(t *testing.T) {
	e, err := NewEngine(EngineConfig{Ports: 8, LinkBps: 1e9, Delta: 0.01}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A long transfer keeps a Coflow live and a circuit planned throughout.
	reg := Event{Kind: KindRegister, At: 0, Coflow: 1, Flows: []FlowSpec{{Src: 0, Dst: 1, Bytes: 1e12}}}
	if _, err := e.Apply(reg); err != nil {
		t.Fatal(err)
	}
	var early int
	for k := 1; k <= 10_000; k++ {
		// Each outage ends before the next event, on a port no flow uses.
		ev := Event{Kind: KindFault, At: float64(k) * 1e-3, Port: 5, Duration: 4e-4}
		if _, err := e.Apply(ev); err != nil {
			t.Fatal(err)
		}
		if k == 10 {
			early = snapshotSize(t, e)
		}
	}
	if _, err := e.Apply(Event{Kind: KindAdvance, At: 11}); err != nil {
		t.Fatal(err)
	}
	if e.outages.N != 0 || len(e.State().Outages) != 0 {
		t.Fatalf("%d outages retained after every transient ended", e.outages.N)
	}
	if late := snapshotSize(t, e); late > early+64 {
		t.Fatalf("snapshot grew from %d to %d bytes over 10k expired outages", early, late)
	}
}

// TestEngineReuseResumesAfterOutage: schedule reuse stops while an outage is
// in effect and resumes once it has ended — and the schedules stay
// bit-identical to a full-replan engine's throughout.
func TestEngineReuseResumesAfterOutage(t *testing.T) {
	inc, full, oi, _ := twinEngines(t, 16)
	reg := func(id int, at float64, src, dst int) Event {
		return Event{Kind: KindRegister, At: at, Coflow: id, Flows: []FlowSpec{{Src: src, Dst: dst, Bytes: 5e8}}}
	}
	evs := []Event{
		reg(1, 0, 0, 1), reg(2, 0.1, 2, 3), reg(3, 0.2, 4, 5),
		{Kind: KindFault, At: 0.3, Port: 9, Duration: 0.2},
		reg(4, 0.35, 6, 7),
	}
	for _, ev := range evs {
		applyBoth(t, inc, full, ev)
	}
	faulted := oi.IntraSkipped.Load()
	for id := 5; id <= 8; id++ {
		applyBoth(t, inc, full, reg(id, 0.6+float64(id)*0.01, 2*id, 2*id+1))
		if inc.Digest() != full.Digest() {
			t.Fatalf("digests diverge after registering coflow %d", id)
		}
	}
	if inc.outages.N != 0 {
		t.Fatalf("%d outages retained after the transient ended", inc.outages.N)
	}
	if oi.IntraSkipped.Load() == faulted {
		t.Fatal("no intra pass was skipped after the outage ended: reuse did not resume")
	}
}
