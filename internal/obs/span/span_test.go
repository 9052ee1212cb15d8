package span

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sunflow/internal/obs"
)

func TestNilSafety(t *testing.T) {
	var p *Profiler
	st := p.NewStack("x")
	if st != nil {
		t.Fatalf("nil Profiler.NewStack = %v, want nil", st)
	}
	sp := st.Start("phase")
	if sp != nil {
		t.Fatalf("nil Stack.Start = %v, want nil", sp)
	}
	if got := sp.Attr("k", "v"); got != nil {
		t.Fatalf("nil Span.Attr = %v, want nil", got)
	}
	if d := sp.Finish(); d != 0 {
		t.Fatalf("nil Span.Finish = %v, want 0", d)
	}
	if d := sp.FinishWith(3); d != 0 {
		t.Fatalf("nil Span.FinishWith = %v, want 0", d)
	}
	if s := sp.Self(); s != 0 {
		t.Fatalf("nil Span.Self = %v, want 0", s)
	}
	if r := p.Roots(); r != nil {
		t.Fatalf("nil Profiler.Roots = %v, want nil", r)
	}
	if !p.Epoch().IsZero() {
		t.Fatalf("nil Profiler.Epoch = %v, want zero", p.Epoch())
	}
}

// Disabled profiling must cost callers nothing: the nil fast path through
// Start/Attr/Finish allocates zero bytes, matching the nil *obs.Observer
// contract the hot loops rely on.
func TestDisabledZeroAlloc(t *testing.T) {
	var st *Stack
	allocs := testing.AllocsPerRun(100, func() {
		sp := st.Start("sched.pass")
		sp.Attr("k", "v")
		sp.FinishWith(0.25)
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %v bytes/op, want 0", allocs)
	}
}

func TestTreeNesting(t *testing.T) {
	p := New(Options{Tree: true})
	st := p.NewStack("")

	a := st.Start("a")
	b := st.Start("b")
	b.Finish()
	c := st.Start("c")
	c.Finish()
	a.Finish()
	r2 := st.Start("r2")
	r2.Finish()

	roots := p.Roots()
	if len(roots) != 2 {
		t.Fatalf("got %d roots, want 2", len(roots))
	}
	if roots[0].Name != "a" || roots[1].Name != "r2" {
		t.Fatalf("roots = %q, %q; want a, r2", roots[0].Name, roots[1].Name)
	}
	if len(roots[0].Children) != 2 {
		t.Fatalf("root a has %d children, want 2", len(roots[0].Children))
	}
	if roots[0].Children[0].Name != "b" || roots[0].Children[1].Name != "c" {
		t.Fatalf("children = %q, %q; want b, c", roots[0].Children[0].Name, roots[0].Children[1].Name)
	}
	for _, child := range roots[0].Children {
		if child.ParentID != roots[0].ID {
			t.Errorf("child %q ParentID = %d, want %d", child.Name, child.ParentID, roots[0].ID)
		}
	}
	ids := map[int64]string{}
	for _, sp := range []*Span{a, b, c, r2} {
		if sp.ID == 0 {
			t.Errorf("span %q has id 0", sp.Name)
		}
		if prev, dup := ids[sp.ID]; dup {
			t.Errorf("spans %q and %q share id %d", prev, sp.Name, sp.ID)
		}
		ids[sp.ID] = sp.Name
	}
	if a.ParentID != 0 || r2.ParentID != 0 {
		t.Errorf("root ParentIDs = %d, %d; want 0, 0", a.ParentID, r2.ParentID)
	}
}

func TestFinishWithAndDoubleFinish(t *testing.T) {
	p := New(Options{Tree: true})
	st := p.NewStack("")

	sp := st.Start("x")
	if d := sp.FinishWith(0.5); d != 0.5 {
		t.Fatalf("FinishWith(0.5) = %v, want 0.5", d)
	}
	if sp.Dur != 0.5 {
		t.Fatalf("Dur = %v, want 0.5", sp.Dur)
	}
	// A second finish must be a no-op: Dur keeps the first measurement and
	// no second root is retained.
	if d := sp.Finish(); d != 0 {
		t.Fatalf("second Finish = %v, want 0", d)
	}
	if sp.Dur != 0.5 {
		t.Fatalf("Dur after double finish = %v, want 0.5", sp.Dur)
	}
	if n := len(p.Roots()); n != 1 {
		t.Fatalf("%d roots after double finish, want 1", n)
	}

	neg := st.Start("y")
	if d := neg.FinishWith(-1); d != 0 {
		t.Fatalf("FinishWith(-1) = %v, want clamp to 0", d)
	}
}

func TestSelf(t *testing.T) {
	p := New(Options{Tree: true})
	st := p.NewStack("")
	a := st.Start("a")
	st.Start("b").FinishWith(0.3)
	st.Start("c").FinishWith(0.2)
	a.FinishWith(1.0)
	if got := a.Self(); got < 0.5-1e-12 || got > 0.5+1e-12 {
		t.Fatalf("Self = %v, want 0.5", got)
	}
	// Children exceeding the parent's own measurement clamp at zero rather
	// than going negative.
	d := st.Start("d")
	st.Start("e").FinishWith(2)
	d.FinishWith(1)
	if got := d.Self(); got != 0 {
		t.Fatalf("over-subscribed Self = %v, want 0", got)
	}
}

func TestRegistryAggregation(t *testing.T) {
	reg := obs.NewRegistry()
	p := New(Options{Registry: reg})

	st := p.NewStack("")
	st.Start("intra").FinishWith(0.25)
	st.Start("intra").FinishWith(0.75)

	scoped := p.NewStack("tms")
	scoped.Start("sinkhorn").FinishWith(0.5)

	h := reg.Histogram("span.intra")
	if h.Count() != 2 || h.Sum() != 1.0 {
		t.Fatalf("span.intra count=%d sum=%v, want 2, 1.0", h.Count(), h.Sum())
	}
	if h.Max() != 0.75 {
		t.Fatalf("span.intra max=%v, want 0.75", h.Max())
	}
	sh := reg.Histogram("tms.span.sinkhorn")
	if sh.Count() != 1 || sh.Sum() != 0.5 {
		t.Fatalf("tms.span.sinkhorn count=%d sum=%v, want 1, 0.5", sh.Count(), sh.Sum())
	}
}

func TestSinkEmission(t *testing.T) {
	var sink obs.SliceSink
	p := New(Options{Sink: &sink})
	st := p.NewStack("sunflow")

	parent := st.Start("sched.pass")
	child := st.Start("intra").Attr("scheduler", "tms")
	child.FinishWith(0.1)
	parent.FinishWith(0.4)

	evs := sink.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	// Children finish — and therefore emit — before their parents.
	if evs[0].Name != "intra" || evs[1].Name != "sched.pass" {
		t.Fatalf("emission order = %q, %q; want intra, sched.pass", evs[0].Name, evs[1].Name)
	}
	ce, pe := evs[0], evs[1]
	if ce.Kind != obs.KindSpan || pe.Kind != obs.KindSpan {
		t.Fatalf("kinds = %q, %q; want span", ce.Kind, pe.Kind)
	}
	if ce.Scope != "sunflow" || pe.Scope != "sunflow" {
		t.Fatalf("scopes = %q, %q; want sunflow", ce.Scope, pe.Scope)
	}
	if ce.T != 0 || ce.Coflow != -1 || ce.Src != -1 || ce.Dst != -1 {
		t.Fatalf("span event carries simulated-time fields: %+v", ce)
	}
	if ce.Parent != pe.Span || pe.Parent != 0 {
		t.Fatalf("parent links: child.Parent=%d parent.Span=%d parent.Parent=%d", ce.Parent, pe.Span, pe.Parent)
	}
	if ce.Span == 0 || pe.Span == 0 || ce.Span == pe.Span {
		t.Fatalf("span ids: child=%d parent=%d", ce.Span, pe.Span)
	}
	if ce.Dur != 0.1 || pe.Dur != 0.4 {
		t.Fatalf("durations: child=%v parent=%v", ce.Dur, pe.Dur)
	}
	if ce.Attrs["scheduler"] != "tms" {
		t.Fatalf("child attrs = %v, want scheduler=tms", ce.Attrs)
	}
	if ce.Wall < 0 || pe.Wall < 0 || ce.Wall < pe.Wall {
		t.Fatalf("wall offsets: child=%v parent=%v (child must start at or after parent)", ce.Wall, pe.Wall)
	}
}

// A forgotten Finish on a child must not corrupt later parentage: finishing
// the parent pops the stack past the open child, and the next Start is a
// fresh root.
func TestStackRecoversFromForgottenFinish(t *testing.T) {
	p := New(Options{Tree: true})
	st := p.NewStack("")

	a := st.Start("a")
	st.Start("leaked") // never finished
	a.Finish()
	b := st.Start("b")
	b.Finish()

	roots := p.Roots()
	if len(roots) != 2 {
		t.Fatalf("got %d roots, want 2 (a and b)", len(roots))
	}
	if b.ParentID != 0 {
		t.Fatalf("b.ParentID = %d, want 0 (stack should have recovered)", b.ParentID)
	}
}

func TestWallMonotoneAgainstEpoch(t *testing.T) {
	p := New(Options{Tree: true})
	st := p.NewStack("")
	sp := st.Start("x")
	time.Sleep(time.Millisecond)
	sp.Finish()
	if sp.Wall < 0 {
		t.Fatalf("Wall = %v, want >= 0 (offsets are measured from the epoch)", sp.Wall)
	}
	if sp.Dur <= 0 {
		t.Fatalf("Dur = %v, want > 0 after a sleep", sp.Dur)
	}
}

// Many Stacks may record into one Profiler concurrently: ids stay unique,
// every span reaches the registry and the sink, and -race stays quiet.
func TestConcurrentStacks(t *testing.T) {
	reg := obs.NewRegistry()
	var sink obs.SliceSink
	p := New(Options{Registry: reg, Sink: &sink, Tree: true})

	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := p.NewStack(fmt.Sprintf("w%d", w))
			for i := 0; i < per; i++ {
				root := st.Start("job")
				st.Start("phase").FinishWith(0.001)
				root.FinishWith(0.002)
			}
		}(w)
	}
	wg.Wait()

	want := workers * per * 2
	if got := sink.Count(obs.KindSpan); got != want {
		t.Fatalf("sink saw %d span events, want %d", got, want)
	}
	if got := len(p.Roots()); got != workers*per {
		t.Fatalf("%d roots, want %d", got, workers*per)
	}
	seen := map[int64]bool{}
	for _, ev := range sink.Events() {
		if seen[ev.Span] {
			t.Fatalf("duplicate span id %d across concurrent stacks", ev.Span)
		}
		seen[ev.Span] = true
	}
	for w := 0; w < workers; w++ {
		h := reg.Histogram(fmt.Sprintf("w%d.span.job", w))
		if h.Count() != per {
			t.Fatalf("w%d.span.job count = %d, want %d", w, h.Count(), per)
		}
	}
}

func TestSamplerPublishesRuntimeMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s := &Sampler{MinInterval: time.Nanosecond}
	s.Sample(reg)
	if v := reg.Gauge(NameHeapBytes).Load(); v <= 0 {
		t.Fatalf("%s = %d, want > 0", NameHeapBytes, v)
	}
	if v := reg.Gauge(NameGoroutines).Load(); v <= 0 {
		t.Fatalf("%s = %d, want > 0", NameGoroutines, v)
	}
	// Nil receivers and registries are no-ops.
	var nilS *Sampler
	nilS.Sample(reg)
	s.Sample(nil)
}

func TestSamplerThrottle(t *testing.T) {
	reg := obs.NewRegistry()
	s := &Sampler{MinInterval: time.Hour}
	s.Sample(reg)
	first := reg.Gauge(NameGoroutines).Load()
	if first <= 0 {
		t.Fatalf("first sample did not publish")
	}
	// Inside the window the read is skipped entirely, so even a changed
	// runtime state leaves the gauges untouched.
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() { <-done }()
	}
	s.Sample(reg)
	if got := reg.Gauge(NameGoroutines).Load(); got != first {
		t.Fatalf("throttled sample updated goroutines: %d -> %d", first, got)
	}
	close(done)
}

// The profiler samples the runtime at root-span boundaries only.
func TestSamplerTriggersAtRootFinish(t *testing.T) {
	reg := obs.NewRegistry()
	p := New(Options{Registry: reg, Runtime: &Sampler{MinInterval: time.Nanosecond}})
	st := p.NewStack("")
	root := st.Start("job")
	st.Start("child").Finish()
	if v := reg.Gauge(NameGoroutines).Load(); v != 0 {
		t.Fatalf("child finish sampled the runtime (goroutines=%d), want root-only", v)
	}
	root.Finish()
	if v := reg.Gauge(NameGoroutines).Load(); v <= 0 {
		t.Fatalf("root finish did not sample the runtime")
	}
}
