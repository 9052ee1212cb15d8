package core

import (
	"fmt"
	"strings"
	"testing"

	"sunflow/internal/obs"
	"sunflow/internal/trace"
)

// TestIntraObsReservationsMatchPRT reconciles the observability counters
// with the scheduler's ground truth: the Reservations counter must equal
// both the schedule's reservation list and the circuits actually placed in
// the Port Reservation Table.
func TestIntraObsReservationsMatchPRT(t *testing.T) {
	tr := trace.Generator{Ports: 10, Coflows: 8, MaxWidth: 4, Seed: 11}.Trace()
	prt := NewPRT(tr.Ports)
	o := obs.New()
	opts := Options{LinkBps: gbps, Delta: ns(0.01), Obs: o}

	total := 0
	for _, c := range tr.Coflows {
		sched, err := IntraCoflow(prt, c, opts)
		if err != nil {
			t.Fatal(err)
		}
		total += len(sched.Reservations)
	}

	if got := o.Reservations.Load(); got != int64(total) {
		t.Errorf("Reservations counter = %d, schedules hold %d reservations", got, total)
	}
	if got := prt.Len(); got != total {
		t.Errorf("PRT holds %d reservations, schedules hold %d", got, total)
	}
	if got := o.IntraPasses.Load(); got != int64(len(tr.Coflows)) {
		t.Errorf("IntraPasses = %d, scheduled %d Coflows", got, len(tr.Coflows))
	}
	if o.IntraSeconds.Load() <= 0 {
		t.Errorf("IntraSeconds = %v, want > 0", o.IntraSeconds.Load())
	}
}

// TestIntraObsExamined pins sched.intra_examined: every reservation is made
// on a demand visit, so the visits bound the reservations from above; the
// event-driven path never visits more demands than the scan that re-examines
// every pending one each round; and the counter reaches the Prometheus
// exposition.
func TestIntraObsExamined(t *testing.T) {
	tr := trace.Generator{Ports: 10, Coflows: 8, MaxWidth: 4, Seed: 11}.Trace()
	prt, fast := NewPRT(tr.Ports), obs.New()
	opts := Options{LinkBps: gbps, Delta: ns(0.01), Obs: fast}
	for _, c := range tr.Coflows {
		if _, err := IntraCoflow(prt, c, opts); err != nil {
			t.Fatal(err)
		}
	}
	refPRT, ref := NewPRT(tr.Ports), obs.New()
	refOpts := Options{LinkBps: gbps, Delta: ns(0.01), Obs: ref}
	var re int64
	for _, c := range tr.Coflows {
		_, examined, err := intraReference(refPRT, c, refOpts)
		if err != nil {
			t.Fatal(err)
		}
		re += int64(examined)
	}
	if fast.Reservations.Load() != ref.Reservations.Load() {
		t.Fatalf("reservations differ: fast %d, reference %d", fast.Reservations.Load(), ref.Reservations.Load())
	}
	fe := fast.IntraExamined.Load()
	if fe < fast.Reservations.Load() || fe > re {
		t.Errorf("examined: fast %d, reference %d, reservations %d; want reservations <= fast <= reference",
			fe, re, fast.Reservations.Load())
	}
	if s := fast.Summary(); s.IntraExamined != fe {
		t.Errorf("Summary().IntraExamined = %d, counter holds %d", s.IntraExamined, fe)
	}
	var sb strings.Builder
	if err := obs.WritePrometheus(&sb, fast.Registry()); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("sched_intra_examined %d\n", fe); !strings.Contains(sb.String(), want) {
		t.Errorf("Prometheus exposition lacks %q", want)
	}
}
