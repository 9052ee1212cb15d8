package coflow

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

const gbps = 1e9

func almostEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestFlowProcTime(t *testing.T) {
	// 1 MB at 1 Gbps is 8 ms — the unit convention the paper's α = 1.25
	// depends on.
	f := Flow{Src: 0, Dst: 1, Bytes: 1e6}
	if got := f.ProcTime(gbps); !almostEq(got, 0.008) {
		t.Fatalf("ProcTime(1MB @1Gbps) = %v, want 0.008", got)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name  string
		flows []Flow
		ports int
		ok    bool
	}{
		{"valid", []Flow{{0, 1, 10}, {1, 0, 5}}, 2, true},
		{"src out of range", []Flow{{2, 1, 10}}, 2, false},
		{"dst out of range", []Flow{{0, 2, 10}}, 2, false},
		{"negative src", []Flow{{-1, 0, 10}}, 2, false},
		{"negative size", []Flow{{0, 1, -1}}, 2, false},
		{"nan size", []Flow{{0, 1, math.NaN()}}, 2, false},
		{"inf size", []Flow{{0, 1, math.Inf(1)}}, 2, false},
		{"duplicate pair", []Flow{{0, 1, 1}, {0, 1, 2}}, 2, false},
		{"empty", nil, 2, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(1, 0, tc.flows)
			err := c.Validate(tc.ports)
			if (err == nil) != tc.ok {
				t.Fatalf("Validate = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

// validateWithSet is the set-based duplicate check Validate falls back to,
// applied from the first flow: the oracle for its sorted fast path.
func validateWithSet(c *Coflow, numPorts int) error {
	seen := make(map[[2]int]bool, len(c.Flows))
	for _, f := range c.Flows {
		if f.Src < 0 || f.Src >= numPorts {
			return fmt.Errorf("coflow %d: src port %d out of range [0,%d)", c.ID, f.Src, numPorts)
		}
		if f.Dst < 0 || f.Dst >= numPorts {
			return fmt.Errorf("coflow %d: dst port %d out of range [0,%d)", c.ID, f.Dst, numPorts)
		}
		if f.Bytes < 0 || math.IsNaN(f.Bytes) || math.IsInf(f.Bytes, 0) {
			return fmt.Errorf("coflow %d: flow %d->%d has invalid size %v", c.ID, f.Src, f.Dst, f.Bytes)
		}
		key := [2]int{f.Src, f.Dst}
		if seen[key] {
			return fmt.Errorf("coflow %d: duplicate flow for port pair %d->%d", c.ID, f.Src, f.Dst)
		}
		seen[key] = true
	}
	return nil
}

// TestValidateSortedAndShuffled holds Validate's error, string for string, to
// the set-based check on (Src, Dst)-sorted input — the adjacent-pair fast
// path — and on shuffles of it, which leave that path at the first
// out-of-order flow.
func TestValidateSortedAndShuffled(t *testing.T) {
	cases := []struct {
		name  string
		flows []Flow
		want  string // substring of the error on the sorted input; "" for none
	}{
		{"valid", []Flow{{0, 1, 10}, {1, 0, 5}, {1, 2, 1}, {2, 2, 3}, {3, 0, 4}}, ""},
		{"duplicate", []Flow{{0, 1, 1}, {1, 3, 2}, {2, 0, 1}, {1, 3, 4}, {3, 3, 5}}, "duplicate flow for port pair 1->3"},
		{"duplicate at the start", []Flow{{0, 0, 1}, {0, 0, 2}, {2, 1, 1}, {3, 2, 1}}, "duplicate flow for port pair 0->0"},
		{"two duplicates", []Flow{{0, 1, 1}, {2, 2, 1}, {0, 1, 2}, {2, 2, 3}, {1, 1, 1}}, "duplicate flow for port pair 0->1"},
		{"src out of range", []Flow{{0, 1, 1}, {1, 1, 1}, {4, 0, 1}, {2, 3, 1}}, "src port 4 out of range"},
		{"dst out of range", []Flow{{0, 1, 1}, {2, 7, 1}, {3, 0, 1}}, "dst port 7 out of range"},
		{"negative src", []Flow{{1, 1, 1}, {-1, 0, 1}, {2, 2, 1}}, "src port -1 out of range"},
		{"nan size", []Flow{{0, 1, 1}, {1, 2, math.NaN()}, {3, 3, 1}}, "invalid size NaN"},
		{"inf size", []Flow{{0, 1, 1}, {2, 0, math.Inf(1)}, {3, 3, 1}}, "invalid size +Inf"},
		{"nan and duplicate", []Flow{{0, 1, 1}, {0, 1, 2}, {1, 2, math.NaN()}, {3, 3, 1}}, "duplicate flow for port pair 0->1"},
		{"range and duplicate", []Flow{{0, 1, 1}, {1, 1, 1}, {1, 1, 2}, {3, 9, 1}}, "duplicate flow for port pair 1->1"},
	}
	const ports = 4
	rng := rand.New(rand.NewSource(1))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sorted := New(1, 0, tc.flows)
			sort.SliceStable(sorted.Flows, func(a, b int) bool { return pairLess(sorted.Flows[a], sorted.Flows[b]) })
			err := sorted.Validate(ports)
			if (err == nil) != (tc.want == "") || err != nil && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("sorted: Validate = %v, want %q", err, tc.want)
			}
			for k := 0; k < 20; k++ {
				c := sorted
				if k > 0 {
					c = sorted.Clone()
					rng.Shuffle(len(c.Flows), func(a, b int) { c.Flows[a], c.Flows[b] = c.Flows[b], c.Flows[a] })
				}
				got, want := c.Validate(ports), validateWithSet(c, ports)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("flows %v: Validate = %v, set-based check = %v", c.Flows, got, want)
				}
			}
		})
	}
}

func TestNormalizeMergesAndSorts(t *testing.T) {
	c := New(7, 1.5, []Flow{
		{2, 3, 5},
		{0, 1, 10},
		{2, 3, 7},
		{1, 1, 0}, // dropped
	})
	n := c.Normalize()
	if n.ID != 7 || n.Arrival != 1.5 {
		t.Fatalf("Normalize lost identity: %+v", n)
	}
	want := []Flow{{0, 1, 10}, {2, 3, 12}}
	if len(n.Flows) != len(want) {
		t.Fatalf("Normalize flows = %v, want %v", n.Flows, want)
	}
	for i := range want {
		if n.Flows[i] != want[i] {
			t.Fatalf("Normalize flows[%d] = %v, want %v", i, n.Flows[i], want[i])
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		name  string
		flows []Flow
		want  Class
	}{
		{"o2o", []Flow{{0, 1, 1}}, OneToOne},
		{"o2m", []Flow{{0, 1, 1}, {0, 2, 1}}, OneToMany},
		{"m2o", []Flow{{0, 5, 1}, {1, 5, 1}}, ManyToOne},
		{"m2m", []Flow{{0, 2, 1}, {1, 3, 1}}, ManyToMany},
		{"empty is o2o", nil, OneToOne},
		{"zero flows ignored", []Flow{{0, 1, 1}, {3, 4, 0}}, OneToOne},
		{"self loop", []Flow{{0, 0, 1}}, OneToOne},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := New(0, 0, tc.flows).Classify(); got != tc.want {
				t.Fatalf("Classify = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestClassStrings(t *testing.T) {
	want := map[Class]string{OneToOne: "O2O", OneToMany: "O2M", ManyToOne: "M2O", ManyToMany: "M2M"}
	for c, s := range want {
		if c.String() != s {
			t.Fatalf("Class(%d).String() = %q, want %q", int(c), c.String(), s)
		}
	}
}

func TestPacketLowerBound(t *testing.T) {
	// Equation 2: max over port loads. 2x2 demand: in.0 sends 3 MB, in.1
	// sends 1; out.0 receives 2, out.1 receives 2. Max is 3 MB.
	c := New(0, 0, []Flow{
		{0, 0, 2e6}, {0, 1, 1e6}, {1, 1, 1e6},
	})
	want := 3e6 * 8 / gbps
	if got := c.PacketLowerBound(gbps); !almostEq(got, want) {
		t.Fatalf("TpL = %v, want %v", got, want)
	}
}

// packetLowerBoundMaps is TpL computed over PortSums' per-port maps, the
// reference the map-free PacketLowerBound must match bit for bit.
func packetLowerBoundMaps(c *Coflow, linkBps float64) float64 {
	in, out := c.PortSums()
	var maxBytes float64
	for _, b := range in {
		maxBytes = math.Max(maxBytes, b)
	}
	for _, b := range out {
		maxBytes = math.Max(maxBytes, b)
	}
	return maxBytes * 8 / linkBps
}

// TestQuickPacketLowerBoundMatchesMaps: over Coflows with repeated port
// pairs, fractional, zero and negative bytes, ports on both sides of the
// 256-port stack buffer and the empty Coflow, PacketLowerBound equals the
// map-based reference exactly — each port's float sum is taken in flow order
// either way.
func TestQuickPacketLowerBoundMatchesMaps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ports := []int{1, 4, 150, 256, 257, 600}[rng.Intn(6)]
		flows := make([]Flow, rng.Intn(40))
		for i := range flows {
			b := rng.Float64() * 1e8
			switch rng.Intn(6) {
			case 0:
				b = 0
			case 1:
				b = -b
			case 2:
				b = math.Round(b)
			}
			flows[i] = Flow{Src: rng.Intn(ports), Dst: rng.Intn(ports), Bytes: b}
		}
		c := &Coflow{ID: 1, Flows: flows}
		got, want := c.PacketLowerBound(gbps), packetLowerBoundMaps(c, gbps)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Logf("seed %d: TpL %v, map reference %v", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCircuitLowerBound(t *testing.T) {
	// Equation 4: each flow adds δ to both its ports. in.0 has two flows:
	// t = (16ms + δ) + (8ms + δ).
	delta := 0.01
	c := New(0, 0, []Flow{
		{0, 0, 2e6}, {0, 1, 1e6}, {1, 1, 1e6},
	})
	want := (2e6*8/gbps + delta) + (1e6*8/gbps + delta)
	if got := c.CircuitLowerBound(gbps, delta); !almostEq(got, want) {
		t.Fatalf("TcL = %v, want %v", got, want)
	}
}

func TestCircuitBoundAtLeastPacketBound(t *testing.T) {
	// TcL ≥ TpL always (δ ≥ 0 adds per-flow overhead).
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		c := randomCoflow(rng, 8, 12)
		tpl := c.PacketLowerBound(gbps)
		tcl := c.CircuitLowerBound(gbps, 0.01)
		if tcl < tpl-1e-12 {
			t.Fatalf("TcL=%v < TpL=%v for %v", tcl, tpl, c)
		}
		if zero := c.CircuitLowerBound(gbps, 0); !almostEq(zero, tpl) && zero < tpl-1e-12 {
			t.Fatalf("TcL(δ=0)=%v < TpL=%v", zero, tpl)
		}
	}
}

func TestAlpha(t *testing.T) {
	// 1 MB minimum flow at 1 Gbps, δ = 10 ms → α = 1.25, the trace's bound.
	c := New(0, 0, []Flow{{0, 0, 1e6}, {1, 1, 5e6}})
	if got := c.Alpha(gbps, 0.01); !almostEq(got, 1.25) {
		t.Fatalf("Alpha = %v, want 1.25", got)
	}
	empty := New(0, 0, nil)
	if got := empty.Alpha(gbps, 0.01); !math.IsInf(got, 1) {
		t.Fatalf("Alpha(empty) = %v, want +Inf", got)
	}
}

func TestDemandMatrixAndPortSums(t *testing.T) {
	c := New(0, 0, []Flow{{0, 1, 3}, {2, 1, 4}})
	d := c.DemandMatrix(3)
	if d[0][1] != 3 || d[2][1] != 4 || d[1][1] != 0 {
		t.Fatalf("DemandMatrix = %v", d)
	}
	in, out := c.PortSums()
	if in[0] != 3 || in[2] != 4 || out[1] != 7 {
		t.Fatalf("PortSums = %v %v", in, out)
	}
}

func TestCombine(t *testing.T) {
	a := New(1, 5, []Flow{{0, 1, 10}})
	b := New(2, 3, []Flow{{0, 1, 5}, {1, 0, 2}})
	comb, err := Combine(9, []*Coflow{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if comb.ID != 9 || comb.Arrival != 3 {
		t.Fatalf("Combine identity = %+v", comb)
	}
	if comb.TotalBytes() != 17 || comb.NumFlows() != 2 {
		t.Fatalf("Combine content: %v", comb)
	}
	if _, err := Combine(1, nil); err == nil {
		t.Fatal("Combine(nil) should fail")
	}
}

func TestAvgProcTimeAndMisc(t *testing.T) {
	c := New(0, 0, []Flow{{0, 0, 1e6}, {1, 1, 3e6}})
	want := (0.008 + 0.024) / 2
	if got := c.AvgProcTime(gbps); !almostEq(got, want) {
		t.Fatalf("AvgProcTime = %v, want %v", got, want)
	}
	if c.MinFlowBytes() != 1e6 {
		t.Fatalf("MinFlowBytes = %v", c.MinFlowBytes())
	}
	if c.MaxPort() != 2 {
		t.Fatalf("MaxPort = %d", c.MaxPort())
	}
	if New(0, 0, nil).MaxPort() != 0 {
		t.Fatal("MaxPort(empty) should be 0")
	}
}

func TestSendersReceivers(t *testing.T) {
	c := New(0, 0, []Flow{{3, 1, 1}, {0, 1, 1}, {3, 2, 1}})
	s, r := c.Senders(), c.Receivers()
	if len(s) != 2 || s[0] != 0 || s[1] != 3 {
		t.Fatalf("Senders = %v", s)
	}
	if len(r) != 2 || r[0] != 1 || r[1] != 2 {
		t.Fatalf("Receivers = %v", r)
	}
}

// randomCoflow builds a random Coflow with distinct port pairs.
func randomCoflow(rng *rand.Rand, ports, maxFlows int) *Coflow {
	n := 1 + rng.Intn(maxFlows)
	used := map[[2]int]bool{}
	var flows []Flow
	for len(flows) < n {
		i, j := rng.Intn(ports), rng.Intn(ports)
		if used[[2]int{i, j}] {
			continue
		}
		used[[2]int{i, j}] = true
		flows = append(flows, Flow{Src: i, Dst: j, Bytes: float64(1+rng.Intn(100)) * 1e6})
	}
	return New(rng.Int(), 0, flows)
}

func TestQuickNormalizeIdempotent(t *testing.T) {
	// Property: Normalize is idempotent and preserves total bytes.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCoflow(rng, 10, 20)
		n1 := c.Normalize()
		n2 := n1.Normalize()
		if !almostEq(n1.TotalBytes(), c.TotalBytes()) {
			return false
		}
		if len(n1.Flows) != len(n2.Flows) {
			return false
		}
		for i := range n1.Flows {
			if n1.Flows[i] != n2.Flows[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBoundsScaleWithBandwidth(t *testing.T) {
	// Property: TpL scales inversely with bandwidth; TcL(δ=0) == TpL.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCoflow(rng, 6, 10)
		t1 := c.PacketLowerBound(gbps)
		t10 := c.PacketLowerBound(10 * gbps)
		if !almostEq(t1, 10*t10) {
			return false
		}
		return almostEq(c.CircuitLowerBound(gbps, 0), t1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// normalizeMap is Normalize as a map of per-pair sums followed by a sort, the
// reference the sort-and-merge Normalize must match bit for bit.
func normalizeMap(c *Coflow) *Coflow {
	merged := make(map[[2]int]float64)
	for _, f := range c.Flows {
		if f.Bytes > 0 {
			merged[[2]int{f.Src, f.Dst}] += f.Bytes
		}
	}
	flows := make([]Flow, 0, len(merged))
	for k, b := range merged {
		flows = append(flows, Flow{Src: k[0], Dst: k[1], Bytes: b})
	}
	sort.Slice(flows, func(i, j int) bool {
		if flows[i].Src != flows[j].Src {
			return flows[i].Src < flows[j].Src
		}
		return flows[i].Dst < flows[j].Dst
	})
	return &Coflow{ID: c.ID, Arrival: c.Arrival, Flows: flows}
}

// TestQuickNormalizeMatchesMap: over Coflows with repeated port pairs (many
// of them, on few ports), zero, negative and fractional bytes, Normalize
// equals the map reference exactly, compared with math.Float64bits — a
// repeated pair's sizes are summed in input order either way.
func TestQuickNormalizeMatchesMap(t *testing.T) {
	repeats := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ports := 1 + rng.Intn(6)
		flows := make([]Flow, rng.Intn(60))
		for i := range flows {
			b := rng.Float64() * 1e8
			switch rng.Intn(6) {
			case 0:
				b = 0
			case 1:
				b = -b
			case 2:
				b = math.Round(b)
			case 3:
				b = rng.Float64() * 1e-3
			}
			flows[i] = Flow{Src: rng.Intn(ports), Dst: rng.Intn(ports), Bytes: b}
		}
		c := &Coflow{ID: int(seed), Arrival: rng.Float64(), Flows: flows}
		got, want := c.Normalize(), normalizeMap(c)
		if got.ID != want.ID || got.Arrival != want.Arrival || len(got.Flows) != len(want.Flows) {
			t.Logf("seed %d: %+v, map reference %+v", seed, got, want)
			return false
		}
		for i, g := range got.Flows {
			w := want.Flows[i]
			if g.Src != w.Src || g.Dst != w.Dst || math.Float64bits(g.Bytes) != math.Float64bits(w.Bytes) {
				t.Logf("seed %d: flow %d is %+v, map reference %+v", seed, i, g, w)
				return false
			}
		}
		if len(got.Flows) < c.NumFlows() {
			repeats++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if repeats == 0 {
		t.Fatal("no draw repeated a port pair")
	}
}
