package replay

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"sunflow/internal/coflow"
	"sunflow/internal/core"
	"sunflow/internal/fabric"
	"sunflow/internal/obs"
	"sunflow/internal/sim"
	"sunflow/internal/trace"
	"sunflow/internal/varys"
)

const gbps = 1e9

func workload() []*coflow.Coflow {
	return trace.Generator{Ports: 12, Coflows: 15, MaxWidth: 5, Seed: 7}.Trace().Coflows
}

// runCircuitTrace runs the circuit simulator with a JSONL trace, then decodes
// it back — the exact pipeline a user of sunflow-analyze exercises.
func runCircuitTrace(t *testing.T, scope string, fair *core.FairWindows) (*obs.Observer, sim.Result, []obs.Event) {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	root := obs.NewWith(obs.NewRegistry(), sink)
	o := root
	if scope != "" {
		o = root.Scoped(scope)
	}
	res, err := sim.RunCircuit(workload(), sim.CircuitOptions{
		Ports: 12, LinkBps: gbps, Delta: 0.01, Fair: fair, Obs: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return o, res, evs
}

func noViolations(t *testing.T, a *Analysis) {
	t.Helper()
	for _, v := range a.Violations {
		t.Errorf("lint: %s", v)
	}
}

// TestReplayCircuitExact is the reconciliation property test: everything the
// replay derives from the trace must equal the live Registry counters and the
// simulator's returned CCTs EXACTLY — same float64 bits, not approximately.
func TestReplayCircuitExact(t *testing.T) {
	o, res, evs := runCircuitTrace(t, "", nil)
	a := Analyze(evs)
	noViolations(t, a)

	s := a.Scope("")
	if s == nil {
		t.Fatalf("no root scope; scopes = %v", a.ScopeNames())
	}
	if got, want := s.CircuitSetups, o.CircuitSetups.Load(); got != want {
		t.Errorf("CircuitSetups = %d, counter says %d", got, want)
	}
	if got, want := s.SetupSeconds, o.SetupSeconds.Load(); got != want {
		t.Errorf("SetupSeconds = %v, counter says %v (diff %g)", got, want, got-want)
	}
	if got, want := s.HoldSeconds, o.HoldSeconds.Load(); got != want {
		t.Errorf("HoldSeconds = %v, counter says %v (diff %g)", got, want, got-want)
	}
	if got, want := s.PlannedBytes, o.PlannedBytes.Load(); got != want {
		t.Errorf("PlannedBytes = %v, counter says %v (diff %g)", got, want, got-want)
	}
	if got, want := s.DutyCycle, o.Summary().DutyCycle; got != want {
		t.Errorf("DutyCycle = %v, Summary says %v", got, want)
	}

	if len(s.Coflows) == 0 {
		t.Fatal("replay found no coflows")
	}
	for _, st := range s.Coflows {
		if !st.Completed {
			t.Errorf("coflow %d not completed in replay", st.ID)
			continue
		}
		if want, ok := res.CCT[st.ID]; !ok {
			t.Errorf("coflow %d in trace but not in result", st.ID)
		} else if st.CCT != want {
			t.Errorf("coflow %d CCT = %v, simulator says %v", st.ID, st.CCT, want)
		}
	}
	if got := len(s.CCTs()); got != len(s.Coflows) {
		t.Errorf("CCTs() returned %d values for %d coflows", got, len(s.Coflows))
	}
}

// TestReplayCircuitFairScoped repeats the exactness check on a scoped, fair-
// windowed run: the trickiest trace shape (windows interleave with circuits,
// flows can drain mid-reservation, circuits outlive the last event).
func TestReplayCircuitFairScoped(t *testing.T) {
	fair := &core.FairWindows{N: 12, T: 5e8, Tau: 5e7}
	o, res, evs := runCircuitTrace(t, "sunflow", fair)
	a := Analyze(evs)
	noViolations(t, a)

	s := a.Scope("sunflow")
	if s == nil {
		t.Fatalf("no sunflow scope; scopes = %v", a.ScopeNames())
	}
	if got, want := s.CircuitSetups, o.CircuitSetups.Load(); got != want {
		t.Errorf("CircuitSetups = %d, counter says %d", got, want)
	}
	if got, want := s.SetupSeconds, o.SetupSeconds.Load(); got != want {
		t.Errorf("SetupSeconds = %v, counter says %v", got, want)
	}
	if got, want := s.HoldSeconds, o.HoldSeconds.Load(); got != want {
		t.Errorf("HoldSeconds = %v, counter says %v (diff %g)", got, want, got-want)
	}
	if got, want := s.DutyCycle, o.Summary().DutyCycle; got != want {
		t.Errorf("DutyCycle = %v, Summary says %v", got, want)
	}
	for _, st := range s.Coflows {
		if st.CCT != res.CCT[st.ID] {
			t.Errorf("coflow %d CCT = %v, simulator says %v", st.ID, st.CCT, res.CCT[st.ID])
		}
	}
}

// TestReplayPacketExact runs the packet simulator (no circuits, only flow and
// Coflow lifecycle) through the same pipeline.
func TestReplayPacketExact(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	o := obs.NewWith(obs.NewRegistry(), sink).Scoped("varys")
	res, err := sim.RunPacketObs(workload(), 12, gbps, varys.Allocator{}, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	a, err := AnalyzeReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	noViolations(t, a)

	s := a.Scope("varys")
	if s == nil {
		t.Fatalf("no varys scope; scopes = %v", a.ScopeNames())
	}
	if s.CircuitSetups != 0 || len(s.Circuits) != 0 {
		t.Errorf("packet trace produced %d circuits", len(s.Circuits))
	}
	if len(s.Coflows) == 0 {
		t.Fatal("replay found no coflows")
	}
	for _, st := range s.Coflows {
		if st.CCT != res.CCT[st.ID] {
			t.Errorf("coflow %d CCT = %v, simulator says %v", st.ID, st.CCT, res.CCT[st.ID])
		}
	}
}

// TestReplayFabricTrace lint-checks an assignment-executor trace: circuits
// are anonymous (Coflow −1) and there are no flow or Coflow events.
func TestReplayFabricTrace(t *testing.T) {
	sink := &obs.SliceSink{}
	o := obs.NewWith(obs.NewRegistry(), sink)
	rem := [][]float64{{0, 200e6}, {200e6, 0}}
	schedule := []fabric.Assignment{
		{Match: []int{1, 0}, Duration: 1},
		{Match: []int{-1, -1}, Duration: 0},
		{Match: []int{1, 0}, Duration: 1},
	}
	if _, err := fabric.ExecuteObs(rem, schedule, gbps, 0.01, 0, fabric.NotAllStop, o); err != nil {
		t.Fatal(err)
	}
	a := Analyze(sink.Events())
	noViolations(t, a)
	s := a.Scope("")
	if s == nil {
		t.Fatal("no root scope")
	}
	if got, want := s.CircuitSetups, o.CircuitSetups.Load(); got != want {
		t.Errorf("CircuitSetups = %d, counter says %d", got, want)
	}
	for _, c := range s.Circuits {
		if c.Coflow != -1 {
			t.Errorf("fabric circuit attributed to coflow %d", c.Coflow)
		}
	}
}

// TestPortTimeline checks the Gantt-feeding accessor: every closed circuit
// lands on both its ports, segments are disjoint per port, and the δ prefix
// fits inside the segment.
func TestPortTimeline(t *testing.T) {
	_, _, evs := runCircuitTrace(t, "", nil)
	s := Analyze(evs).Scope("")
	for _, in := range []bool{true, false} {
		ports, segs := s.PortTimeline(in)
		total := 0
		for _, p := range ports {
			prevEnd := math.Inf(-1)
			for _, seg := range segs[p] {
				total++
				if seg.Start < prevEnd-timeEps {
					t.Errorf("port %d (in=%v): segment at %v overlaps previous ending %v", p, in, seg.Start, prevEnd)
				}
				if seg.Setup < 0 || seg.Start+seg.Setup > seg.End+timeEps {
					t.Errorf("port %d: setup %v does not fit in [%v,%v]", p, seg.Setup, seg.Start, seg.End)
				}
				prevEnd = seg.End
			}
		}
		closed := 0
		for _, c := range s.Circuits {
			if c.Closed() {
				closed++
			}
		}
		if total != closed {
			t.Errorf("in=%v: timeline has %d segments, %d closed circuits", in, total, closed)
		}
	}
}

func kinds(vs []Violation) map[Rule]int {
	m := map[Rule]int{}
	for _, v := range vs {
		m[v.Rule]++
	}
	return m
}

// TestLintCatchesViolations hand-builds malformed traces, one per rule.
func TestLintCatchesViolations(t *testing.T) {
	up := func(tm float64, src, dst int) obs.Event {
		return obs.Event{T: tm, Kind: obs.KindCircuitUp, Coflow: -1, Src: src, Dst: dst, Dur: 0.01}
	}
	down := func(tm float64, src, dst int) obs.Event {
		return obs.Event{T: tm, Kind: obs.KindCircuitDown, Coflow: -1, Src: src, Dst: dst}
	}
	cases := []struct {
		name string
		evs  []obs.Event
		want Rule
	}{
		{"unmatched up", []obs.Event{up(0, 0, 1)}, RuleUnmatchedUp},
		{"unmatched down", []obs.Event{down(1, 0, 1)}, RuleUnmatchedDown},
		{"double up same pair", []obs.Event{up(0, 0, 1), up(0.5, 0, 1), down(1, 0, 1), down(1.5, 0, 1)}, RulePortOverlap},
		{"overlap on src port", []obs.Event{up(0, 0, 1), up(0.5, 0, 2), down(1, 0, 1), down(1.5, 0, 2)}, RulePortOverlap},
		{"overlap on dst port", []obs.Event{up(0, 0, 2), up(0.5, 1, 2), down(1, 0, 2), down(1.5, 1, 2)}, RulePortOverlap},
		{"down before up", []obs.Event{up(1, 0, 1), down(0.5, 0, 1)}, RuleTimeOrder},
		{"negative timestamp", []obs.Event{up(-1, 0, 1), down(1, 0, 1)}, RuleTimeOrder},
		{"nan timestamp", []obs.Event{{T: math.NaN(), Kind: obs.KindCircuitUp, Src: 0, Dst: 1}}, RuleTimeOrder},
		{"complete without admit", []obs.Event{
			{T: 1, Kind: obs.KindCoflowComplete, Coflow: 3, Src: -1, Dst: -1, Dur: 1},
		}, RuleLifecycle},
		{"duplicate admit", []obs.Event{
			{T: 0, Kind: obs.KindCoflowAdmit, Coflow: 3, Src: -1, Dst: -1, Bytes: 10},
			{T: 1, Kind: obs.KindCoflowAdmit, Coflow: 3, Src: -1, Dst: -1, Bytes: 10},
		}, RuleLifecycle},
		{"never completes", []obs.Event{
			{T: 0, Kind: obs.KindCoflowAdmit, Coflow: 3, Src: -1, Dst: -1, Bytes: 10},
		}, RuleLifecycle},
		{"finish before start", []obs.Event{
			{T: 0, Kind: obs.KindCoflowAdmit, Coflow: 3, Src: -1, Dst: -1, Bytes: 10},
			{T: 1, Kind: obs.KindFlowFinish, Coflow: 3, Src: 0, Dst: 1, Bytes: 10},
			{T: 2, Kind: obs.KindCoflowComplete, Coflow: 3, Src: -1, Dst: -1, Dur: 2},
		}, RuleLifecycle},
		{"bytes mismatch", []obs.Event{
			{T: 0, Kind: obs.KindCoflowAdmit, Coflow: 3, Src: -1, Dst: -1, Bytes: 100e6},
			{T: 0, Kind: obs.KindFlowStart, Coflow: 3, Src: 0, Dst: 1},
			{T: 1, Kind: obs.KindFlowFinish, Coflow: 3, Src: 0, Dst: 1, Bytes: 40e6},
			{T: 1, Kind: obs.KindCoflowComplete, Coflow: 3, Src: -1, Dst: -1, Dur: 1},
		}, RuleBytesMismatch},
		{"cct disagrees", []obs.Event{
			{T: 0, Kind: obs.KindCoflowAdmit, Coflow: 3, Src: -1, Dst: -1, Bytes: 10},
			{T: 1, Kind: obs.KindCoflowComplete, Coflow: 3, Src: -1, Dst: -1, Dur: 5},
		}, RuleLifecycle},
		{"window close without open", []obs.Event{
			{T: 1, Kind: obs.KindWindowClose, Coflow: -1, Src: -1, Dst: -1},
		}, RuleLifecycle},
		{"unknown kind", []obs.Event{
			{T: 1, Kind: "teleport", Coflow: -1, Src: -1, Dst: -1},
		}, RuleLifecycle},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := Analyze(tc.evs)
			if kinds(a.Violations)[tc.want] == 0 {
				t.Errorf("want a %s violation, got %v", tc.want, a.Violations)
			}
		})
	}
}

// TestLintAllowsTrailingWindow mirrors reality: a simulation may end while a
// fair window is still open; that is not a violation.
func TestLintAllowsTrailingWindow(t *testing.T) {
	a := Analyze([]obs.Event{
		{T: 0, Kind: obs.KindWindowOpen, Coflow: -1, Src: -1, Dst: -1},
		{T: 1, Kind: obs.KindWindowClose, Coflow: -1, Src: -1, Dst: -1},
		{T: 2, Kind: obs.KindWindowOpen, Coflow: -1, Src: -1, Dst: -1},
	})
	noViolations(t, a)
	if a.Scope("").Windows != 2 {
		t.Errorf("Windows = %d, want 2", a.Scope("").Windows)
	}
}

// TestReaderErrors pins down the streaming reader's failure modes.
func TestReaderErrors(t *testing.T) {
	evs, err := ReadAll(strings.NewReader(
		"{\"t\":1,\"kind\":\"circuit_up\",\"src\":0,\"dst\":1}\n" +
			"\n" + // blank lines are skipped
			"  {\"t\":2,\"kind\":\"circuit_down\",\"src\":0,\"dst\":1}  \n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Coflow != -1 {
		t.Errorf("absent coflow decoded to %d, want -1", evs[0].Coflow)
	}

	_, err = ReadAll(strings.NewReader("{\"t\":1}\n{not json}\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("want line-2 decode error, got %v", err)
	}

	r := NewReader(strings.NewReader(""))
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("empty trace: want io.EOF, got %v", err)
	}
}

// TestAnalyzeEmpty keeps the degenerate case sane.
func TestAnalyzeEmpty(t *testing.T) {
	a := Analyze(nil)
	if len(a.Violations) != 0 || len(a.Scopes) != 0 || a.Start != 0 || a.End != 0 {
		t.Errorf("empty analysis = %+v", a)
	}
}
