package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sunflow/internal/coflow"
)

const gbps = 1e9

var testOpts = Options{LinkBps: gbps, Delta: ns(0.01)}

// ns converts a test's seconds to ticks.
func ns(sec float64) int64 {
	t, err := Nanos(sec)
	if err != nil {
		panic(err)
	}
	return t
}

// mustIntra schedules on a fresh PRT and fails the test on error.
func mustIntra(t *testing.T, c *coflow.Coflow, n int, opts Options) *Schedule {
	t.Helper()
	prt := NewPRT(n)
	s, err := IntraCoflow(prt, c, opts)
	if err != nil {
		t.Fatalf("IntraCoflow: %v", err)
	}
	return s
}

// servedBytes sums reservation payloads per flow.
func servedBytes(s *Schedule) map[[2]int]float64 {
	out := map[[2]int]float64{}
	for _, r := range s.Reservations {
		out[[2]int{r.In, r.Out}] += float64(r.Bytes)
	}
	return out
}

func TestIntraSingleFlow(t *testing.T) {
	c := coflow.New(1, 0, []coflow.Flow{{Src: 0, Dst: 1, Bytes: 1e6}})
	s := mustIntra(t, c, 2, testOpts)
	if len(s.Reservations) != 1 {
		t.Fatalf("reservations = %d, want 1", len(s.Reservations))
	}
	// CCT = δ + p = 10ms + 8ms.
	if want := 0.018; math.Abs(Seconds(s.Finish)-want) > 1e-9 {
		t.Fatalf("Finish = %v, want %v", s.Finish, want)
	}
	if got := s.CCT(0); math.Abs(got-0.018) > 1e-9 {
		t.Fatalf("CCT = %v", got)
	}
	if f, ok := s.FlowFinish(0, 1); !ok || math.Abs(Seconds(f)-0.018) > 1e-9 {
		t.Fatalf("FlowFinish(0, 1) = %v, %v", f, ok)
	}
	if _, ok := s.FlowFinish(1, 0); ok {
		t.Fatal("FlowFinish reports a flow the Coflow does not have")
	}
}

func TestIntraEmptyCoflow(t *testing.T) {
	c := coflow.New(1, 0, nil)
	s := mustIntra(t, c, 2, testOpts)
	if len(s.Reservations) != 0 || s.Finish != s.Start {
		t.Fatalf("empty coflow schedule: %+v", s)
	}
}

func TestIntraOptionsValidation(t *testing.T) {
	prt := NewPRT(2)
	c := coflow.New(1, 0, []coflow.Flow{{Src: 0, Dst: 1, Bytes: 1}})
	if _, err := IntraCoflow(prt, c, Options{LinkBps: 0}); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
	if _, err := IntraCoflow(prt, c, Options{LinkBps: 1, Delta: -1}); err == nil {
		t.Fatal("negative delta accepted")
	}
	bad := coflow.New(1, 0, []coflow.Flow{{Src: 5, Dst: 1, Bytes: 1}})
	if _, err := IntraCoflow(prt, bad, testOpts); err == nil {
		t.Fatal("out-of-range port accepted")
	}
}

func TestIntraOneToManyOptimal(t *testing.T) {
	// One sender, three receivers: circuits are scheduled back to back on
	// in.0, so CCT equals TcL exactly (§5.3.1).
	c := coflow.New(1, 0, []coflow.Flow{
		{Src: 0, Dst: 1, Bytes: 1e6},
		{Src: 0, Dst: 2, Bytes: 2e6},
		{Src: 0, Dst: 3, Bytes: 3e6},
	})
	s := mustIntra(t, c, 4, testOpts)
	tcl := c.CircuitLowerBound(gbps, Seconds(testOpts.Delta))
	if math.Abs(Seconds(s.Finish)-tcl) > 1e-9 {
		t.Fatalf("O2M CCT = %v, want TcL = %v", s.Finish, tcl)
	}
	if s.SwitchingCount() != 3 {
		t.Fatalf("switching count = %d, want 3", s.SwitchingCount())
	}
}

func TestIntraManyToOneOptimal(t *testing.T) {
	c := coflow.New(1, 0, []coflow.Flow{
		{Src: 1, Dst: 0, Bytes: 1e6},
		{Src: 2, Dst: 0, Bytes: 2e6},
		{Src: 3, Dst: 0, Bytes: 5e6},
	})
	s := mustIntra(t, c, 4, testOpts)
	tcl := c.CircuitLowerBound(gbps, Seconds(testOpts.Delta))
	if math.Abs(Seconds(s.Finish)-tcl) > 1e-9 {
		t.Fatalf("M2O CCT = %v, want TcL = %v", s.Finish, tcl)
	}
}

func TestIntraDisjointFlowsRunInParallel(t *testing.T) {
	// Two flows on disjoint port pairs start simultaneously — the
	// interleaving the not-all-stop model allows (Figure 1c).
	c := coflow.New(1, 0, []coflow.Flow{
		{Src: 0, Dst: 0, Bytes: 4e6},
		{Src: 1, Dst: 1, Bytes: 4e6},
	})
	s := mustIntra(t, c, 2, testOpts)
	if len(s.Reservations) != 2 {
		t.Fatalf("reservations = %d", len(s.Reservations))
	}
	for _, r := range s.Reservations {
		if r.Start != 0 {
			t.Fatalf("reservation did not start immediately: %+v", r)
		}
	}
	if want := 0.01 + 0.032; math.Abs(Seconds(s.Finish)-want) > 1e-9 {
		t.Fatalf("Finish = %v, want %v", s.Finish, want)
	}
}

func TestIntraServesAllDemand(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		c := randomCoflow(rng, 6, 14)
		s := mustIntra(t, c, 6, testOpts)
		served := servedBytes(s)
		for _, f := range c.Flows {
			got := served[[2]int{f.Src, f.Dst}]
			if math.Abs(got-f.Bytes) > 1e-3 {
				t.Fatalf("flow %d->%d served %v of %v", f.Src, f.Dst, got, f.Bytes)
			}
		}
	}
	// Flows of a few bytes transmit within the time noise floor at 100 Gb/s;
	// both planners must still serve their whole bytes.
	tiny := coflow.New(1, 0, []coflow.Flow{{Src: 0, Dst: 1, Bytes: 1}, {Src: 1, Dst: 2, Bytes: 12}, {Src: 2, Dst: 0, Bytes: 0.6}})
	tinyOpts := Options{LinkBps: 100e9, Delta: ns(0.01)}
	ref, _, err := intraReference(NewPRT(3), tiny, tinyOpts)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Schedule{"fast": mustIntra(t, tiny, 3, tinyOpts), "reference": ref} {
		served := servedBytes(s)
		for _, f := range tiny.Flows {
			if got, want := served[[2]int{f.Src, f.Dst}], math.Round(f.Bytes); got != want {
				t.Fatalf("%s: flow %d->%d served %v of %v", name, f.Src, f.Dst, got, want)
			}
		}
	}
}

func TestIntraSwitchingCountIsMinimal(t *testing.T) {
	// On an empty PRT no reservation is ever shortened, so the switching
	// count equals |C| — the optimal count of Figure 5.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		c := randomCoflow(rng, 8, 20)
		s := mustIntra(t, c, 8, testOpts)
		if s.SwitchingCount() != c.NumFlows() {
			t.Fatalf("switching = %d, |C| = %d", s.SwitchingCount(), c.NumFlows())
		}
	}
}

func TestIntraLemma1FactorOfTwo(t *testing.T) {
	// TS ≤ 2·TcL for any B, δ, Coflow and ordering (Lemma 1).
	rng := rand.New(rand.NewSource(99))
	orders := []Order{OrderedPort, RandomOrder, SortedDemand}
	for trial := 0; trial < 300; trial++ {
		c := randomCoflow(rng, 10, 30)
		opts := Options{
			LinkBps: []float64{1e9, 1e10, 1e11}[rng.Intn(3)],
			Delta:   ns([]float64{1e-5, 1e-3, 1e-2, 1e-1}[rng.Intn(4)]),
			Order:   orders[rng.Intn(len(orders))],
			Seed:    rng.Int63(),
		}
		s := mustIntra(t, c, 10, opts)
		tcl := c.CircuitLowerBound(opts.LinkBps, Seconds(opts.Delta))
		if Seconds(s.Finish) > 2*tcl+1e-9 {
			t.Fatalf("Lemma 1 violated: TS=%v > 2·TcL=%v (δ=%v, B=%v, order=%v)",
				s.Finish, 2*tcl, opts.Delta, opts.LinkBps, opts.Order)
		}
	}
}

func TestIntraLemma2Bound(t *testing.T) {
	// TS ≤ 2(1+α)·TpL (Lemma 2).
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 200; trial++ {
		c := randomCoflow(rng, 8, 20)
		s := mustIntra(t, c, 8, testOpts)
		alpha := c.Alpha(testOpts.LinkBps, Seconds(testOpts.Delta))
		tpl := c.PacketLowerBound(testOpts.LinkBps)
		if Seconds(s.Finish) > 2*(1+alpha)*tpl+1e-9 {
			t.Fatalf("Lemma 2 violated: TS=%v > %v", s.Finish, 2*(1+alpha)*tpl)
		}
	}
}

func TestIntraPortConstraintNeverViolated(t *testing.T) {
	// PRT.Reserve panics on any overlap, so a run to completion proves the
	// port constraint held; this test exercises dense demand where every
	// port pair is loaded.
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		n := 5
		var flows []coflow.Flow
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				flows = append(flows, coflow.Flow{Src: i, Dst: j, Bytes: float64(1+rng.Intn(20)) * 1e6})
			}
		}
		c := coflow.New(trial, 0, flows)
		s := mustIntra(t, c, n, testOpts)
		if s.SwitchingCount() != n*n {
			t.Fatalf("dense coflow switching = %d, want %d", s.SwitchingCount(), n*n)
		}
	}
}

func TestIntraOrderingInsensitivity(t *testing.T) {
	// §5.3.1: orderings differ by only a few percent. Verify the bound
	// holds and results differ by at most 2x (a loose sanity envelope on a
	// single random Coflow).
	rng := rand.New(rand.NewSource(42))
	c := randomCoflow(rng, 10, 40)
	base := mustIntra(t, c, 10, Options{LinkBps: gbps, Delta: ns(0.01), Order: OrderedPort})
	for _, o := range []Order{RandomOrder, SortedDemand} {
		s := mustIntra(t, c, 10, Options{LinkBps: gbps, Delta: ns(0.01), Order: o, Seed: 1})
		ratio := Seconds(s.Finish) / Seconds(base.Finish)
		if ratio < 0.5 || ratio > 2 {
			t.Fatalf("ordering %v ratio %v out of envelope", o, ratio)
		}
	}
}

func TestIntraRandomOrderDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := randomCoflow(rng, 8, 20)
	o := Options{LinkBps: gbps, Delta: ns(0.01), Order: RandomOrder, Seed: 321}
	a := mustIntra(t, c, 8, o)
	b := mustIntra(t, c, 8, o)
	if a.Finish != b.Finish || len(a.Reservations) != len(b.Reservations) {
		t.Fatal("RandomOrder with equal seeds must be deterministic")
	}
}

func TestIntraAroundPreloadedReservation(t *testing.T) {
	// A pre-seeded commitment on in.0 at [0.05, 0.1) shortens the flow's
	// reservation (inter-Coflow mechanics, Figure 2): the flow wants
	// δ+0.08 = 0.09s but only 0.05s is available, so it is split.
	prt := NewPRT(2)
	prt.Preload([]Reservation{{CoflowID: 99, In: 0, Out: 1, Start: ns(0.05), End: ns(0.10), Setup: ns(0.01), Bytes: 0.04 * gbps / 8}})
	c := coflow.New(1, 0, []coflow.Flow{{Src: 0, Dst: 0, Bytes: 10e6}}) // p = 80ms
	s, err := IntraCoflow(prt, c, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Reservations) != 2 {
		t.Fatalf("want a split reservation, got %+v", s.Reservations)
	}
	first := s.Reservations[0]
	if first.Start != 0 || math.Abs(Seconds(first.End)-0.05) > 1e-9 {
		t.Fatalf("first reservation = %+v, want [0, 0.05)", first)
	}
	second := s.Reservations[1]
	if Seconds(second.Start) < 0.10-1e-9 {
		t.Fatalf("second reservation starts at %v inside the preloaded slot", second.Start)
	}
	// Total payload must equal the demand; the second reservation pays a
	// second δ.
	if total := first.Bytes + second.Bytes; total != 10e6 {
		t.Fatalf("served %v of 10e6", total)
	}
}

func TestIntraGapShorterThanDeltaIsSkipped(t *testing.T) {
	// A free gap of only δ/2 before a commitment cannot host a circuit; the
	// flow must wait for the release.
	prt := NewPRT(2)
	prt.Preload([]Reservation{{CoflowID: 99, In: 0, Out: 1, Start: ns(0.005), End: ns(0.10)}})
	c := coflow.New(1, 0, []coflow.Flow{{Src: 0, Dst: 0, Bytes: 1e6}})
	s, err := IntraCoflow(prt, c, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Reservations) != 1 {
		t.Fatalf("reservations = %+v", s.Reservations)
	}
	if Seconds(s.Reservations[0].Start) < 0.10-1e-9 {
		t.Fatalf("reservation start %v should wait for the release at 0.10", s.Reservations[0].Start)
	}
}

func TestQuickIntraLemma1(t *testing.T) {
	// Property form of Lemma 1 over the full randomized space.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCoflow(rng, 6, 15)
		delta := math.Pow(10, -1-4*rng.Float64()) // 1e-5 .. 1e-1
		opts := Options{LinkBps: gbps, Delta: ns(delta), Order: RandomOrder, Seed: seed}
		prt := NewPRT(6)
		s, err := IntraCoflow(prt, c, opts)
		if err != nil {
			return false
		}
		return Seconds(s.Finish) <= 2*c.CircuitLowerBound(gbps, Seconds(opts.Delta))+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// randomCoflow builds a random Coflow with distinct port pairs.
func randomCoflow(rng *rand.Rand, ports, maxFlows int) *coflow.Coflow {
	n := 1 + rng.Intn(maxFlows)
	used := map[[2]int]bool{}
	var flows []coflow.Flow
	for len(flows) < n {
		i, j := rng.Intn(ports), rng.Intn(ports)
		if used[[2]int{i, j}] {
			continue
		}
		used[[2]int{i, j}] = true
		flows = append(flows, coflow.Flow{Src: i, Dst: j, Bytes: float64(1+rng.Intn(100)) * 1e6})
	}
	return coflow.New(rng.Int(), 0, flows)
}
