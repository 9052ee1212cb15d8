package core

import (
	"math"
	"testing"

	"sunflow/internal/coflow"
)

func testWindows() FairWindows {
	return FairWindows{N: 4, T: ns(1.0), Tau: ns(0.1)}
}

func TestFairWindowsValidate(t *testing.T) {
	fw := testWindows()
	if err := fw.Validate(ns(0.01)); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if err := (FairWindows{N: 4, T: ns(1), Tau: ns(0.005)}).Validate(ns(0.01)); err == nil {
		t.Fatal("τ ≤ δ accepted")
	}
	if err := (FairWindows{N: 4, T: ns(0.05), Tau: ns(0.1)}).Validate(ns(0.01)); err == nil {
		t.Fatal("T ≤ τ accepted")
	}
	if err := (FairWindows{N: 0, T: ns(1), Tau: ns(0.1)}).Validate(ns(0.01)); err == nil {
		t.Fatal("zero ports accepted")
	}
}

func TestFairWindowsGeometry(t *testing.T) {
	fw := testWindows() // period 1.1, windows at [1.0,1.1), [2.1,2.2), ...
	if fw.Covers(ns(0.5)) {
		t.Fatal("0.5 should be normal time")
	}
	if !fw.Covers(ns(1.05)) {
		t.Fatal("1.05 should be inside the first window")
	}
	if fw.Covers(ns(1.15)) {
		t.Fatal("1.15 should be past the first window")
	}
	if got := fw.NextStart(0); got != ns(1.0) {
		t.Fatalf("NextStart(0) = %v", got)
	}
	if got := fw.NextStart(ns(1.0)); got != ns(2.1) {
		t.Fatalf("NextStart(1.0) = %v (start is not after itself)", got)
	}
	if got := fw.NextEnd(ns(1.05)); got != ns(1.1) {
		t.Fatalf("NextEnd(1.05) = %v", got)
	}
	if got := fw.NextEnd(ns(1.2)); got != ns(2.2) {
		t.Fatalf("NextEnd(1.2) = %v", got)
	}
}

func TestFairWindowsAssignmentsCoverAllCircuits(t *testing.T) {
	fw := testWindows()
	seen := map[[2]int]bool{}
	for k := 0; k < fw.N; k++ {
		a := fw.Assignment(k)
		used := map[int]bool{}
		for i, j := range a {
			if used[j] {
				t.Fatalf("assignment %d reuses output %d", k, j)
			}
			used[j] = true
			seen[[2]int{i, j}] = true
		}
	}
	if len(seen) != fw.N*fw.N {
		t.Fatalf("Φ covers %d circuits, want %d", len(seen), fw.N*fw.N)
	}
	// Assignment indices wrap modulo N.
	a0, aN := fw.Assignment(0), fw.Assignment(fw.N)
	for i := range a0 {
		if a0[i] != aN[i] {
			t.Fatal("Assignment should wrap modulo N")
		}
	}
}

func TestFairWindowsWindowsIn(t *testing.T) {
	fw := testWindows()
	ws := fw.WindowsIn(0, ns(3.5))
	if len(ws) != 3 {
		t.Fatalf("WindowsIn(0,3.5) = %d windows, want 3", len(ws))
	}
	if ws[0].Start != ns(1.0) || ws[1].Start != ns(2.1) {
		t.Fatalf("window starts %v %v", ws[0].Start, ws[1].Start)
	}
	// Partial overlap at the left edge is returned too.
	ws = fw.WindowsIn(ns(1.05), ns(1.2))
	if len(ws) != 1 {
		t.Fatalf("partial overlap missed: %v", ws)
	}
}

func TestIntraCoflowAvoidsBlackout(t *testing.T) {
	fw := FairWindows{N: 2, T: ns(0.1), Tau: ns(0.05)}
	if err := fw.Validate(ns(0.01)); err != nil {
		t.Fatal(err)
	}
	prt := NewPRT(2)
	prt.SetBlackout(fw)
	// 30 MB = 240 ms of transmission: must be split around the windows at
	// [0.1, 0.15), [0.25, 0.30), ...
	c := coflow.New(1, 0, []coflow.Flow{{Src: 0, Dst: 0, Bytes: 30e6}})
	s, err := IntraCoflow(prt, c, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range s.Reservations {
		for _, w := range fw.WindowsIn(r.Start, r.End) {
			if w.Start < r.End && w.End > r.Start {
				t.Fatalf("reservation [%v,%v) intrudes into window [%v,%v)", r.Start, r.End, w.Start, w.End)
			}
		}
	}
	var total int64
	for _, r := range s.Reservations {
		total += r.Bytes
	}
	if total != 30e6 {
		t.Fatalf("served %v of 30e6", total)
	}
}

func TestShareCircuitWaterFill(t *testing.T) {
	const bps = 1e9
	// Capacity for 3 MB total (24 ms at 1 Gbps), three flows of 1, 2, 4 MB.
	served := ShareCircuit([]float64{1e6, 2e6, 4e6}, 0.024, bps)
	// Equal instantaneous shares: all get 1 MB; flow 0 finishes. The
	// remaining 0 MB of capacity is split... total = 3 MB: phase 1 brings
	// everyone to 1 MB (3 MB used), done.
	if math.Abs(served[0]-1e6) > 1 || math.Abs(served[1]-1e6) > 1 || math.Abs(served[2]-1e6) > 1 {
		t.Fatalf("served = %v", served)
	}
}

func TestShareCircuitDrainsWhenCapacityAmple(t *testing.T) {
	const bps = 1e9
	served := ShareCircuit([]float64{1e6, 2e6}, 1.0, bps) // 125 MB capacity
	if served[0] != 1e6 || served[1] != 2e6 {
		t.Fatalf("served = %v, want full drain", served)
	}
}

func TestShareCircuitConservation(t *testing.T) {
	const bps = 1e9
	rem := []float64{3e6, 1e6, 7e6, 2e6}
	served := ShareCircuit(rem, 0.05, bps) // 6.25 MB capacity < 13 MB demand
	var sum float64
	for i, s := range served {
		if s < 0 || s > rem[i]+1e-9 {
			t.Fatalf("served[%d] = %v out of range (rem %v)", i, s, rem[i])
		}
		sum += s
	}
	if math.Abs(sum-6.25e6) > 1 {
		t.Fatalf("total served %v != capacity 6.25e6", sum)
	}
	// Smaller flows never get less than larger ones.
	if served[1] > served[0]+1e-9 && rem[1] < rem[0] {
		t.Fatal("water-fill order violated")
	}
}

func TestShareCircuitEdgeCases(t *testing.T) {
	if got := ShareCircuit(nil, 1, 1e9); len(got) != 0 {
		t.Fatalf("empty input: %v", got)
	}
	got := ShareCircuit([]float64{5}, 0, 1e9)
	if got[0] != 0 {
		t.Fatalf("zero duration served %v", got[0])
	}
}
