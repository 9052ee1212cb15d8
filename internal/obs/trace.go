package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// Kind labels a trace event.
type Kind string

// Event kinds emitted by the simulators.
const (
	// KindCircuitUp / KindCircuitDown bracket one executed circuit
	// reservation: up at its start (Dur carries the setup δ, Bytes the
	// capacity), down at its release.
	KindCircuitUp   Kind = "circuit_up"
	KindCircuitDown Kind = "circuit_down"
	// KindFlowStart / KindFlowFinish bracket a (src, dst) flow's service:
	// start when its first byte is carried, finish when its demand drains.
	KindFlowStart  Kind = "flow_start"
	KindFlowFinish Kind = "flow_finish"
	// KindCoflowAdmit / KindCoflowComplete bracket a Coflow's residence in
	// the fabric.
	KindCoflowAdmit    Kind = "coflow_admit"
	KindCoflowComplete Kind = "coflow_complete"
	// KindWindowOpen / KindWindowClose bracket one starvation-avoidance
	// fair window (§4.2).
	KindWindowOpen  Kind = "window_open"
	KindWindowClose Kind = "window_close"
	// KindFaultInject marks a run executing under a nonzero fault plan,
	// emitted once at simulation start.
	KindFaultInject Kind = "fault_inject"
	// KindPortDown / KindPortUp bracket one port outage (Src carries the
	// port, Dst is -1). A permanent failure's down has Dur 0 and never pairs
	// with an up; a transient down carries the outage length in Dur.
	KindPortDown Kind = "port_down"
	KindPortUp   Kind = "port_up"
	// KindCircuitRetry records one failed circuit-setup attempt inside an
	// open circuit's hold; Dur is the δ the attempt paid.
	KindCircuitRetry Kind = "circuit_retry"
	// KindFlowStranded records a flow quarantined because a permanent port
	// failure left it unroutable; Bytes is the demand still unserved. A
	// Coflow with a stranded flow never emits coflow_complete.
	KindFlowStranded Kind = "flow_stranded"
	// KindSpan records one finished profiling span (internal/obs/span):
	// Name is the phase, Span/Parent link the tree, Wall is the wall-clock
	// start offset from the profiler's epoch and Dur the wall-clock
	// duration. Span events live in the wall-clock domain: T is always 0
	// and they carry no simulated-time meaning.
	KindSpan Kind = "span"
)

// Event is one structured trace record. Fields that do not apply to a kind
// hold -1 (Coflow, Src, Dst) or are omitted (Bytes, Dur). T is simulation
// time in seconds.
type Event struct {
	T      float64 `json:"t"`
	Kind   Kind    `json:"kind"`
	Scope  string  `json:"scope,omitempty"`
	Coflow int     `json:"coflow"`
	Src    int     `json:"src"`
	Dst    int     `json:"dst"`
	Bytes  float64 `json:"bytes,omitempty"`
	Dur    float64 `json:"dur,omitempty"`

	// Span fields, set only on KindSpan events. Name is the phase name;
	// Span is the span's id (ids are unique within a trace, never 0);
	// Parent is the enclosing span's id, 0 for a root; Wall is the span's
	// wall-clock start as a seconds offset from the profiler's epoch; Attrs
	// carries optional key/value annotations (scheduler=tms).
	Name   string            `json:"name,omitempty"`
	Span   int64             `json:"span,omitempty"`
	Parent int64             `json:"parent,omitempty"`
	Wall   float64           `json:"wall,omitempty"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// Sink receives trace events. Implementations must be safe for concurrent
// use; the simulators may run in parallel experiment workers.
type Sink interface {
	Emit(Event)
}

// TraceEnabled reports whether Emit will do anything — the one check hot
// paths make before building an Event.
func (o *Observer) TraceEnabled() bool {
	return o != nil && o.sink != nil
}

// Emit forwards the event to the sink, stamping the observer's scope.
// Safe on a nil Observer or without a sink (no-op).
func (o *Observer) Emit(ev Event) {
	if o == nil || o.sink == nil {
		return
	}
	if ev.Scope == "" && o.prefix != "" {
		ev.Scope = o.prefix[:len(o.prefix)-1] // trim the trailing dot
	}
	o.sink.Emit(ev)
}

// JSONLSink writes events as JSON Lines to an io.Writer behind a mutex and
// a buffer. Call Flush (or Close) before reading the output.
type JSONLSink struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	c   io.Closer
}

// NewJSONLSink returns a sink writing one JSON object per line to w. If w is
// an io.Closer, Close will close it.
func NewJSONLSink(w io.Writer) *JSONLSink {
	bw := bufio.NewWriter(w)
	s := &JSONLSink{bw: bw, enc: json.NewEncoder(bw)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Emit implements Sink.
func (s *JSONLSink) Emit(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Encode errors (closed file, full disk) are deliberately dropped:
	// tracing must never fail a simulation.
	_ = s.enc.Encode(ev)
}

// Flush writes buffered events through to the underlying writer.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bw.Flush()
}

// Close flushes and closes the underlying writer when it is closable.
func (s *JSONLSink) Close() error {
	if err := s.Flush(); err != nil {
		return err
	}
	if s.c != nil {
		return s.c.Close()
	}
	return nil
}

// SliceSink buffers events in memory — the sink tests and programmatic
// consumers use.
type SliceSink struct {
	mu  sync.Mutex
	evs []Event
}

// Emit implements Sink.
func (s *SliceSink) Emit(ev Event) {
	s.mu.Lock()
	s.evs = append(s.evs, ev)
	s.mu.Unlock()
}

// Events returns a copy of everything emitted so far.
func (s *SliceSink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.evs...)
}

// Count returns how many events of the kind were emitted.
func (s *SliceSink) Count(k Kind) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, ev := range s.evs {
		if ev.Kind == k {
			n++
		}
	}
	return n
}
