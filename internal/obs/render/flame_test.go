package render

import (
	"strings"
	"testing"

	"sunflow/internal/obs"
	"sunflow/internal/obs/replay"
)

func spanScope(t *testing.T) *replay.Scope {
	t.Helper()
	sev := func(name string, id, parent int64, wall, dur float64, attrs map[string]string) obs.Event {
		return obs.Event{
			Kind: obs.KindSpan, Scope: "sunflow", Coflow: -1, Src: -1, Dst: -1,
			Name: name, Span: id, Parent: parent, Wall: wall, Dur: dur, Attrs: attrs,
		}
	}
	a := replay.Analyze([]obs.Event{
		sev("intra", 3, 2, 0.2, 0.3, map[string]string{"scheduler": "tms"}),
		sev("sched.pass", 2, 1, 0.1, 0.5, nil),
		sev("sim.run", 1, 0, 0.0, 1.0, nil),
	})
	if len(a.Violations) != 0 {
		t.Fatalf("fixture trace does not lint: %v", a.Violations)
	}
	return a.Scope("sunflow")
}

func TestFlameSVG(t *testing.T) {
	var b strings.Builder
	if err := FlameSVG(&b, spanScope(t), FlameOptions{Width: 800}); err != nil {
		t.Fatal(err)
	}
	svg := b.String()
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
		t.Fatalf("output is not a closed SVG document")
	}
	for _, want := range []string{"sim.run", "sched.pass", "intra", "scheduler=tms", "3 spans (3 drawn)"} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG is missing %q", want)
		}
	}
	// Identical phase names must get identical colours across frames.
	if phaseColor("sched.pass") != phaseColor("sched.pass") {
		t.Errorf("phaseColor is not deterministic")
	}
}

func TestFlameSVGEmptyScope(t *testing.T) {
	s := &replay.Scope{}
	var b strings.Builder
	if err := FlameSVG(&b, s, FlameOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "0 spans") {
		t.Errorf("empty scope should render a 0-span chart:\n%s", b.String())
	}
}

func TestFlameSVGDropsSubpixelFrames(t *testing.T) {
	sev := func(name string, id, parent int64, wall, dur float64) obs.Event {
		return obs.Event{
			Kind: obs.KindSpan, Coflow: -1, Src: -1, Dst: -1,
			Name: name, Span: id, Parent: parent, Wall: wall, Dur: dur,
		}
	}
	a := replay.Analyze([]obs.Event{
		sev("tiny", 2, 1, 0.5, 1e-9),
		sev("root", 1, 0, 0.0, 10.0),
	})
	var b strings.Builder
	if err := FlameSVG(&b, a.Scope(""), FlameOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "2 spans (1 drawn)") {
		t.Errorf("want the sub-pixel frame dropped from drawing but counted:\n%s", b.String())
	}
}

func TestPhaseTable(t *testing.T) {
	var b strings.Builder
	if err := PhaseTable(&b, spanScope(t)); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"sunflow — span phases (3 spans, 1.000000s profiled)",
		"sim.run", "sched.pass", "intra", "Σ self",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("phase table missing %q:\n%s", want, out)
		}
	}
	// Self times telescope: the Σ self line carries the root duration.
	if !strings.Contains(out, "1.000000s") {
		t.Errorf("phase table should reconcile to 1.000000s:\n%s", out)
	}
}
