package sunflow

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"sunflow/internal/bench"
	"sunflow/internal/varys"
)

const gbps = 1e9

func exampleCoflow() *Coflow {
	return NewCoflow(1, 0, []Flow{
		{Src: 0, Dst: 2, Bytes: 64e6},
		{Src: 0, Dst: 3, Bytes: 32e6},
		{Src: 1, Dst: 2, Bytes: 16e6},
		{Src: 1, Dst: 3, Bytes: 128e6},
	})
}

func TestScheduleOne(t *testing.T) {
	c := exampleCoflow()
	sched, err := ScheduleOne(c, 4, Options{LinkBps: gbps, Delta: 1e7})
	if err != nil {
		t.Fatal(err)
	}
	tcl := CircuitLowerBound(c, gbps, 0.01)
	if sched.CCT(0) >= 2*tcl {
		t.Fatalf("CCT %v violates Lemma 1 bound %v", sched.CCT(0), 2*tcl)
	}
	if sched.SwitchingCount() != c.NumFlows() {
		t.Fatalf("switching count %d, want %d", sched.SwitchingCount(), c.NumFlows())
	}
}

func TestScheduleAllDefaultPolicy(t *testing.T) {
	small := NewCoflow(1, 0, []Flow{{Src: 0, Dst: 1, Bytes: 1e6}})
	big := NewCoflow(2, 0, []Flow{{Src: 0, Dst: 1, Bytes: 100e6}})
	scheds, ordered, err := ScheduleAll([]*Coflow{big, small}, 2, Options{LinkBps: gbps, Delta: 1e7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ordered[0].ID != 1 {
		t.Fatalf("shortest-first should order the small coflow first, got %d", ordered[0].ID)
	}
	if scheds[0].Finish > scheds[1].Finish {
		t.Fatal("higher priority coflow finished later")
	}
}

// TestScheduleAllFacebook150Digest pins the full-scale offline pass — the
// 526-Coflow Facebook-derived workload on 150 ports, shortest first, the
// BenchmarkSunflowInter_Facebook150 input — by a SHA-256 over every
// reservation (CoflowID, In, Out, Start, End, Setup, Bytes) and every
// Schedule's Finish, in policy order. It moves only with a deliberate,
// explained change to the schedule.
func TestScheduleAllFacebook150Digest(t *testing.T) {
	cs := bench.Config{Seed: 1, Ports: 150}.Workload()
	scheds, _, err := ScheduleAll(cs, 150, Options{LinkBps: gbps, Delta: 1e7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, s := range scheds {
		for _, r := range s.Reservations {
			put(int64(r.CoflowID))
			put(int64(r.In))
			put(int64(r.Out))
			put(r.Start)
			put(r.End)
			put(r.Setup)
			put(r.Bytes)
		}
		put(s.Finish)
	}
	const want = "457a51fb78c7ee22d4824cfa74da130ea5c5e99b4eaf29dce6ec8ee31a7b1f23"
	if got := hex.EncodeToString(h.Sum(nil)); len(scheds) != 526 || got != want {
		t.Errorf("%d schedules, digest %s; want 526, %s", len(scheds), got, want)
	}
}

func TestSimulateBothFabrics(t *testing.T) {
	cs := []*Coflow{
		NewCoflow(1, 0, []Flow{{Src: 0, Dst: 1, Bytes: 10e6}}),
		NewCoflow(2, 0.05, []Flow{{Src: 1, Dst: 0, Bytes: 5e6}}),
	}
	circuit, err := SimulateCircuit(cs, CircuitOptions{Ports: 2, LinkBps: gbps, Delta: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	packet, err := SimulatePacket(cs, 2, gbps, varys.Allocator{})
	if err != nil {
		t.Fatal(err)
	}
	if len(circuit.CCT) != 2 || len(packet.CCT) != 2 {
		t.Fatal("both coflows must finish in both fabrics")
	}
	for id := range packet.CCT {
		if circuit.CCT[id] < packet.CCT[id]-1e-9 {
			t.Fatalf("circuit CCT for %d (%v) beat packet (%v) on disjoint flows",
				id, circuit.CCT[id], packet.CCT[id])
		}
	}
}

func TestBoundsAndClassAliases(t *testing.T) {
	c := exampleCoflow()
	if c.Classify() != ManyToMany {
		t.Fatalf("class = %v", c.Classify())
	}
	tpl := PacketLowerBound(c, gbps)
	tcl := CircuitLowerBound(c, gbps, 0.01)
	if tcl <= tpl {
		t.Fatalf("TcL %v should exceed TpL %v for δ > 0", tcl, tpl)
	}
}

func TestParseTraceAndPerturb(t *testing.T) {
	tr, err := ParseTrace(strings.NewReader("2 1\n1 0 1 0 1 1:8\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Ports != 2 || len(tr.Coflows) != 1 {
		t.Fatalf("trace = %+v", tr)
	}
	out := Perturb(tr.Coflows, 0.05, 1e6, 1)
	if math.Abs(out[0].TotalBytes()-8e6) > 0.05*8e6+1 {
		t.Fatalf("perturbed bytes %v", out[0].TotalBytes())
	}
	if Idleness(tr.Coflows, gbps) != 0 {
		t.Fatalf("single coflow workload idleness should be 0")
	}
}

func TestFairWindowsAlias(t *testing.T) {
	fw := FairWindows{N: 4, T: 1e9, Tau: 1e8}
	if err := fw.Validate(1e7); err != nil {
		t.Fatal(err)
	}
}
