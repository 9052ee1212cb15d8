package core

import (
	"strings"
	"testing"

	"sunflow/internal/coflow"
)

func renderSchedule(t *testing.T) *Schedule {
	t.Helper()
	c := coflow.New(1, 0, []coflow.Flow{
		{Src: 0, Dst: 1, Bytes: 4e6},
		{Src: 0, Dst: 2, Bytes: 2e6},
		{Src: 1, Dst: 2, Bytes: 2e6},
	})
	return mustIntra(t, c, 3, testOpts)
}

func TestPortProgram(t *testing.T) {
	s := renderSchedule(t)
	prog := PortProgram(0, s)
	if len(prog) != 2 {
		t.Fatalf("in.0 program has %d events, want 2", len(prog))
	}
	// Events are time ordered and carry setup/transmit/release structure.
	for i, e := range prog {
		if e.TransmitAt <= e.SetupAt || e.ReleaseAt <= e.TransmitAt {
			t.Fatalf("event %d has inverted times: %+v", i, e)
		}
		if e.CoflowID != 1 {
			t.Fatalf("event %d coflow = %d", i, e.CoflowID)
		}
		if i > 0 && prog[i].SetupAt < prog[i-1].ReleaseAt {
			t.Fatalf("events overlap: %+v then %+v", prog[i-1], prog[i])
		}
	}
	if got := PortProgram(2, s); len(got) != 0 {
		t.Fatalf("in.2 should have no circuits, got %v", got)
	}
}

func TestGantt(t *testing.T) {
	s := renderSchedule(t)
	g := Gantt(60, s)
	if g == "" {
		t.Fatal("empty gantt")
	}
	lines := strings.Split(strings.TrimRight(g, "\n"), "\n")
	// Header plus two used input ports.
	if len(lines) != 3 {
		t.Fatalf("gantt lines = %d:\n%s", len(lines), g)
	}
	if !strings.Contains(lines[0], "setup") {
		t.Fatalf("missing header: %q", lines[0])
	}
	if !strings.Contains(g, "#") {
		t.Fatal("no setup cells rendered")
	}
	if !strings.Contains(g, "1") || !strings.Contains(g, "2") {
		t.Fatal("output-port digits missing")
	}
	// Unused rows are dropped.
	if strings.Contains(g, "in.2") {
		t.Fatal("idle port rendered")
	}
}

func TestGanttDegenerate(t *testing.T) {
	if Gantt(0) != "" {
		t.Fatal("no schedules should render empty")
	}
	empty := &Schedule{}
	if Gantt(40, empty) != "" {
		t.Fatal("empty schedule should render empty")
	}
}

func TestQuantumRoundsDemandUp(t *testing.T) {
	c := coflow.New(1, 0, []coflow.Flow{{Src: 0, Dst: 0, Bytes: 1e6}}) // 8 ms
	opts := testOpts
	opts.Quantum = ns(0.005) // round to 10 ms
	s := mustIntra(t, c, 1, opts)
	// CCT = δ + ceil(8/5)·5 ms = 10 + 10 ms.
	if want := 0.02; Seconds(s.Finish) < want-1e-9 || Seconds(s.Finish) > want+1e-9 {
		t.Fatalf("quantized CCT = %v, want %v", s.Finish, want)
	}
	// Quantization can only lengthen the schedule.
	exact := mustIntra(t, c, 1, testOpts)
	if s.Finish < exact.Finish {
		t.Fatalf("quantized %v beat exact %v", s.Finish, exact.Finish)
	}
}

func TestQuantumValidation(t *testing.T) {
	opts := testOpts
	opts.Quantum = -1
	prt := NewPRT(1)
	c := coflow.New(1, 0, []coflow.Flow{{Src: 0, Dst: 0, Bytes: 1}})
	if _, err := IntraCoflow(prt, c, opts); err == nil {
		t.Fatal("negative quantum accepted")
	}
}

func TestQuantumKeepsLemma1OnQuantizedBound(t *testing.T) {
	// With rounded sizes the factor-2 guarantee holds against the bound of
	// the rounded Coflow.
	c := coflow.New(1, 0, []coflow.Flow{
		{Src: 0, Dst: 0, Bytes: 3e6},
		{Src: 0, Dst: 1, Bytes: 5e6},
		{Src: 1, Dst: 1, Bytes: 7e6},
	})
	opts := testOpts
	opts.Quantum = ns(0.016)
	s := mustIntra(t, c, 2, opts)
	rounded := coflow.New(1, 0, []coflow.Flow{
		{Src: 0, Dst: 0, Bytes: 4e6},
		{Src: 0, Dst: 1, Bytes: 6e6},
		{Src: 1, Dst: 1, Bytes: 8e6},
	})
	if Seconds(s.Finish) > 2*rounded.CircuitLowerBound(gbps, Seconds(opts.Delta))+1e-9 {
		t.Fatalf("quantized schedule violates Lemma 1 on the rounded demand")
	}
}
