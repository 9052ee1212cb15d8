package workload

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"sunflow/internal/coflow"
	"sunflow/internal/trace"
)

// refScaleToIdleness is the pre-optimization ScaleToIdleness: it clones and
// rescales the whole workload at every bisection step. The fast path must
// reproduce its factor bit for bit.
func refScaleToIdleness(coflows []*coflow.Coflow, linkBps, target float64) (float64, []*coflow.Coflow, error) {
	if target <= 0 || target >= 1 {
		return 0, nil, fmt.Errorf("workload: idleness target must be in (0,1), got %v", target)
	}
	lo, hi := 1e-9, 1e9
	if Idleness(ScaleBytes(coflows, lo), linkBps) < target {
		return 0, nil, fmt.Errorf("workload: cannot reach idleness %.2f (even factor %g is too busy)", target, lo)
	}
	if Idleness(ScaleBytes(coflows, hi), linkBps) > target {
		return 0, nil, fmt.Errorf("workload: cannot reach idleness %.2f (even factor %g is too idle)", target, hi)
	}
	for i := 0; i < 80; i++ {
		mid := math.Sqrt(lo * hi)
		if Idleness(ScaleBytes(coflows, mid), linkBps) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	factor := math.Sqrt(lo * hi)
	return factor, ScaleBytes(coflows, factor), nil
}

// randomWorkload draws a small irregular workload: generated Coflows plus
// hand-built ones with shared ports, duplicate arrivals and zero-byte flows,
// the structures where span bookkeeping could diverge.
func randomWorkload(rng *rand.Rand) []*coflow.Coflow {
	tr := trace.Generator{
		Ports:      2 + rng.Intn(10),
		Coflows:    1 + rng.Intn(30),
		HorizonSec: 0.5 + 5*rng.Float64(),
		Seed:       rng.Int63(),
		MaxWidth:   2 + rng.Intn(5),
	}.Trace()
	cs := tr.Coflows
	for extra := rng.Intn(4); extra > 0; extra-- {
		var flows []coflow.Flow
		for n := 1 + rng.Intn(5); n > 0; n-- {
			b := float64(rng.Intn(3)) * float64(1+rng.Intn(1000)) * 1e4 // 0 one time in 3
			flows = append(flows, coflow.Flow{Src: rng.Intn(4), Dst: rng.Intn(4), Bytes: b})
		}
		arrival := float64(rng.Intn(3)) // collide arrivals on purpose
		cs = append(cs, coflow.New(1000+extra, arrival, flows))
	}
	return cs
}

// TestQuickIdlenessEvalExact checks the span evaluator against the
// materializing path at exact float equality, across factors spanning the
// whole bisection range.
func TestQuickIdlenessEvalExact(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cs := randomWorkload(rng)
		ev := newIdlenessEval(cs, gbps)
		factors := []float64{1e-9, 1e-6, 1e-3, 1, 1e3, 1e9}
		for i := 0; i < 6; i++ {
			factors = append(factors, math.Exp((rng.Float64()*2-1)*20))
		}
		for _, f := range factors {
			want := Idleness(ScaleBytes(cs, f), gbps)
			got := ev.at(f)
			if got != want {
				t.Fatalf("seed %d factor %g: eval %v, materialized %v", seed, f, got, want)
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickScaleToIdlenessMatchesReference runs the full bisection both ways
// and demands an identical factor and identical scaled Coflows.
func TestQuickScaleToIdlenessMatchesReference(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cs := randomWorkload(rng)
		target := 0.05 + 0.9*rng.Float64()

		wantF, wantCs, wantErr := refScaleToIdleness(cs, gbps, target)
		gotF, gotCs, gotErr := ScaleToIdleness(cs, gbps, target)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("seed %d target %v: ref err %v, fast err %v", seed, target, wantErr, gotErr)
		}
		if wantErr != nil {
			return wantErr.Error() == gotErr.Error()
		}
		if gotF != wantF {
			t.Fatalf("seed %d target %v: factor %v, want %v", seed, target, gotF, wantF)
		}
		if !reflect.DeepEqual(gotCs, wantCs) {
			t.Fatalf("seed %d target %v: scaled workloads diverge", seed, target)
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestIdlenessEvalFixedCases pins the sorted-merge evaluator on shapes the
// random workloads hit only by chance: every Coflow arriving at one instant
// (all spans tie on lo, listed out of hi order), a Coflow whose every flow
// is 0 bytes (no span at any factor), and arrivals given out of order.
func TestIdlenessEvalFixedCases(t *testing.T) {
	flows := func(bytes ...float64) []coflow.Flow {
		var fs []coflow.Flow
		for i, b := range bytes {
			fs = append(fs, coflow.Flow{Src: i % 3, Dst: (i + 1) % 3, Bytes: b})
		}
		return fs
	}
	cases := map[string][]*coflow.Coflow{
		"equal arrivals": {
			coflow.New(1, 2, flows(3e6, 1e6)),
			coflow.New(2, 2, flows(9e6)),
			coflow.New(3, 2, flows(1e5, 1e5, 4e6)),
			coflow.New(4, 7, flows(2e6)),
		},
		"zero-byte coflow": {
			coflow.New(1, 0, flows(5e6)),
			coflow.New(2, 0.5, flows(0, 0, 0)),
			coflow.New(3, 3, flows(1e6, 0)),
		},
		"only zero bytes": {
			coflow.New(1, 1, flows(0)),
			coflow.New(2, 2, flows(0, 0)),
		},
		"arrivals out of order": {
			coflow.New(1, 4, flows(2e6)),
			coflow.New(2, 1, flows(7e6, 7e6)),
			coflow.New(3, 1, flows(1e6)),
			coflow.New(4, 0, flows(3e5)),
		},
	}
	for name, cs := range cases {
		ev := newIdlenessEval(cs, gbps)
		for _, f := range []float64{1e-9, 1e-3, 0.5, 1, 3, 1e3, 1e9} {
			want := Idleness(ScaleBytes(cs, f), gbps)
			if got := ev.at(f); got != want {
				t.Errorf("%s factor %g: eval %v, materialized %v", name, f, got, want)
			}
		}
		for _, target := range []float64{0.2, 0.4} {
			wantF, _, wantErr := refScaleToIdleness(cs, gbps, target)
			gotF, _, gotErr := ScaleToIdleness(cs, gbps, target)
			if (wantErr == nil) != (gotErr == nil) || gotF != wantF {
				t.Errorf("%s target %v: factor %v (%v), reference %v (%v)", name, target, gotF, gotErr, wantF, wantErr)
			}
		}
	}
}
