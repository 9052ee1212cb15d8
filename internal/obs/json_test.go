package obs

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestEventJSONRoundTrip checks encode→decode is the identity across every
// field shape the simulators emit, including the -1 identity sentinels and
// the span fields.
func TestEventJSONRoundTrip(t *testing.T) {
	cases := []Event{
		{T: 0, Kind: KindCoflowAdmit, Coflow: 7, Src: -1, Dst: -1, Bytes: 5e6},
		{T: 1.5, Kind: KindCircuitUp, Scope: "sunflow", Coflow: 7, Src: 2, Dst: 3, Bytes: 1e6, Dur: 0.01},
		{T: 2.25, Kind: KindCircuitDown, Coflow: 7, Src: 2, Dst: 3},
		{T: 3, Kind: KindWindowOpen, Coflow: -1, Src: -1, Dst: -1, Dur: 0.05},
		{T: 4, Kind: KindFlowFinish, Coflow: 0, Src: 0, Dst: 0, Bytes: 1e6},
		{Kind: KindSpan, Scope: "sunflow", Coflow: -1, Src: -1, Dst: -1,
			Name: "sched.pass", Span: 3, Parent: 1, Wall: 0.125, Dur: 0.002},
		{Kind: KindSpan, Coflow: -1, Src: -1, Dst: -1, Name: "intra",
			Span: 9, Wall: 1.5, Dur: 0.25, Attrs: map[string]string{"scheduler": "tms"}},
	}
	for _, want := range cases {
		b, err := json.Marshal(want)
		if err != nil {
			t.Fatalf("marshal %+v: %v", want, err)
		}
		var got Event
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip changed the event:\n  in  %+v\n  out %+v\n  via %s", want, got, b)
		}
	}
}

// TestEventJSONOmitsSentinels checks -1 identity fields are not written.
func TestEventJSONOmitsSentinels(t *testing.T) {
	b, err := json.Marshal(Event{T: 1, Kind: KindWindowClose, Coflow: -1, Src: -1, Dst: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"coflow", "src", "dst", "bytes", "dur"} {
		if strings.Contains(string(b), `"`+key+`"`) {
			t.Errorf("sentinel field %q serialized: %s", key, b)
		}
	}
	// Zero ids are meaningful and must be written.
	b, err = json.Marshal(Event{T: 1, Kind: KindFlowStart, Coflow: 0, Src: 0, Dst: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"coflow", "src", "dst"} {
		if !strings.Contains(string(b), `"`+key+`":0`) {
			t.Errorf("zero-valued %q dropped: %s", key, b)
		}
	}
}

// TestEventJSONDecodeDefaults checks events decoded from lines missing the
// identity keys read -1, not 0 — the decode half of the documented contract.
func TestEventJSONDecodeDefaults(t *testing.T) {
	var ev Event
	if err := json.Unmarshal([]byte(`{"t":2.5,"kind":"window_open","dur":0.05}`), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Coflow != -1 || ev.Src != -1 || ev.Dst != -1 {
		t.Errorf("absent identity keys decoded to %d/%d/%d, want -1/-1/-1", ev.Coflow, ev.Src, ev.Dst)
	}
	if ev.T != 2.5 || ev.Kind != KindWindowOpen || ev.Dur != 0.05 {
		t.Errorf("present fields corrupted: %+v", ev)
	}
}

// TestTeeSink checks fan-out and the nil-collapsing contract.
func TestTeeSink(t *testing.T) {
	a, b := &SliceSink{}, &SliceSink{}
	tee := Tee(nil, a, nil, b)
	tee.Emit(Event{T: 1, Kind: KindCircuitUp, Coflow: 1, Src: 0, Dst: 0})
	if len(a.Events()) != 1 || len(b.Events()) != 1 {
		t.Errorf("tee delivered %d/%d events, want 1/1", len(a.Events()), len(b.Events()))
	}
	if got := Tee(nil, a); got != Sink(a) {
		t.Errorf("single-sink tee should collapse to the sink itself, got %T", got)
	}
	if Tee(nil, nil) != nil {
		t.Error("all-nil tee must return nil so tracing stays disabled")
	}
}
