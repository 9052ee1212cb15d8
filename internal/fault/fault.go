// Package fault is a deterministic, seedable fault model for the
// simulators: transient and permanent port failures, circuit-setup failures
// with bounded retry and exponential backoff in units of δ, degraded
// per-link rates, and straggler flows.
//
// A Plan is pure configuration (JSON-decodable); Compile turns it into a
// Model answering point queries. All randomness derives from the plan's seed
// through counter-based hashing, so a compiled Model is a pure function of
// (plan, ports): two simulations of the same workload under the same plan
// see identical fault sequences, and a zero Plan changes nothing at all —
// the simulators skip every fault code path when Plan.IsZero reports true.
package fault

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
)

// timeEps absorbs floating-point residue in boundary comparisons, matching
// the simulators' event-time epsilon.
const timeEps = 1e-9

// PortFailure is one scripted outage of a switch port. Both the input and
// the output side of the port go dark for the duration.
type PortFailure struct {
	// Port is the failed port index.
	Port int `json:"port"`
	// At is the failure instant in simulation seconds.
	At float64 `json:"at"`
	// Duration is the outage length in seconds. Zero or negative means the
	// failure is permanent: the port never comes back.
	Duration float64 `json:"duration,omitempty"`
}

// Permanent reports whether the failure never heals.
func (f PortFailure) Permanent() bool {
	return f.Duration <= 0 || math.IsInf(f.Duration, 1)
}

// Plan configures fault injection for one simulation run. The zero value
// injects nothing.
type Plan struct {
	// Seed drives every probabilistic draw in the plan. Plans differing only
	// in Seed produce independent fault sequences.
	Seed int64 `json:"seed,omitempty"`

	// PortFailures are scripted outages, transient or permanent.
	PortFailures []PortFailure `json:"port_failures,omitempty"`

	// TransientRate adds random transient outages: each port independently
	// fails at this rate (outages per second of simulated time) over
	// [0, Horizon), each outage lasting an exponential time with mean
	// MeanOutage seconds. Horizon and MeanOutage must be positive when the
	// rate is.
	TransientRate float64 `json:"transient_rate,omitempty"`
	MeanOutage    float64 `json:"mean_outage,omitempty"`
	Horizon       float64 `json:"horizon,omitempty"`

	// SetupFailProb is the probability that one circuit-setup attempt fails,
	// drawn independently per attempt. Must be in [0, 1): at 1 no circuit
	// could ever establish and the simulation would not terminate. A failed
	// attempt still pays δ, then backs off exponentially in units of δ
	// (δ, 2δ, 4δ, …) before retrying, up to MaxRetries retries within the
	// reservation's hold.
	SetupFailProb float64 `json:"setup_fail_prob,omitempty"`
	// FailFirstSetups deterministically fails the first K setup attempts of
	// the run before any probabilistic draw — precise fault placement for
	// tests and demos.
	FailFirstSetups int `json:"fail_first_setups,omitempty"`
	// MaxRetries bounds retries per reservation. Zero selects the default 3.
	MaxRetries int `json:"max_retries,omitempty"`

	// DegradedLinkProb marks each (src, dst) port pair degraded with this
	// probability; a degraded link transmits at DegradedFactor of the link
	// rate (default 0.5) for the whole run.
	DegradedLinkProb float64 `json:"degraded_link_prob,omitempty"`
	DegradedFactor   float64 `json:"degraded_factor,omitempty"`

	// StragglerProb marks each (coflow, src, dst) flow a straggler with this
	// probability; a straggler transmits at StragglerFactor of its allotted
	// rate (default 0.5).
	StragglerProb   float64 `json:"straggler_prob,omitempty"`
	StragglerFactor float64 `json:"straggler_factor,omitempty"`
}

// IsZero reports whether the plan injects no faults at all. Seed alone does
// not make a plan nonzero.
func (p *Plan) IsZero() bool {
	return p == nil ||
		(len(p.PortFailures) == 0 && p.TransientRate == 0 &&
			p.SetupFailProb == 0 && p.FailFirstSetups == 0 &&
			p.DegradedLinkProb == 0 && p.StragglerProb == 0)
}

// Validate checks the plan's parameters for range and NaN errors.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	bad := func(format string, args ...any) error {
		return fmt.Errorf("fault: "+format, args...)
	}
	prob := func(name string, v float64) error {
		if math.IsNaN(v) || v < 0 || v > 1 {
			return bad("%s must be in [0,1], got %v", name, v)
		}
		return nil
	}
	for i, f := range p.PortFailures {
		if f.Port < 0 {
			return bad("port failure %d names negative port %d", i, f.Port)
		}
		if math.IsNaN(f.At) || math.IsInf(f.At, 0) || f.At < 0 {
			return bad("port failure %d has invalid start %v", i, f.At)
		}
		if math.IsNaN(f.Duration) {
			return bad("port failure %d has NaN duration", i)
		}
	}
	if math.IsNaN(p.TransientRate) || p.TransientRate < 0 || math.IsInf(p.TransientRate, 1) {
		return bad("transient rate must be finite and non-negative, got %v", p.TransientRate)
	}
	if p.TransientRate > 0 {
		if math.IsNaN(p.MeanOutage) || p.MeanOutage <= 0 || math.IsInf(p.MeanOutage, 1) {
			return bad("mean outage must be positive and finite with a transient rate, got %v", p.MeanOutage)
		}
		if math.IsNaN(p.Horizon) || p.Horizon <= 0 || math.IsInf(p.Horizon, 1) {
			return bad("horizon must be positive and finite with a transient rate, got %v", p.Horizon)
		}
	}
	if math.IsNaN(p.SetupFailProb) || p.SetupFailProb < 0 || p.SetupFailProb >= 1 {
		return bad("setup failure probability must be in [0,1), got %v", p.SetupFailProb)
	}
	if p.FailFirstSetups < 0 {
		return bad("fail_first_setups must be non-negative, got %d", p.FailFirstSetups)
	}
	if p.MaxRetries < 0 {
		return bad("max_retries must be non-negative, got %d", p.MaxRetries)
	}
	if err := prob("degraded link probability", p.DegradedLinkProb); err != nil {
		return err
	}
	if err := prob("straggler probability", p.StragglerProb); err != nil {
		return err
	}
	factor := func(name string, v float64) error {
		if v != 0 && (math.IsNaN(v) || v <= 0 || v > 1) {
			return bad("%s must be in (0,1], got %v", name, v)
		}
		return nil
	}
	if err := factor("degraded factor", p.DegradedFactor); err != nil {
		return err
	}
	return factor("straggler factor", p.StragglerFactor)
}

// DecodePlan reads a JSON plan, rejecting unknown fields, and validates it.
func DecodePlan(r io.Reader) (*Plan, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("fault: decode plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Outage is one merged downtime interval on a port. End is +Inf for a
// permanent failure.
type Outage struct {
	Port       int
	Start, End float64
}

// Permanent reports whether the outage never ends.
func (o Outage) Permanent() bool { return math.IsInf(o.End, 1) }

// SetupOutcome describes how one reservation's circuit establishment played
// out under the fault model.
type SetupOutcome struct {
	// Established reports whether the circuit eventually came up inside its
	// hold. When false the reservation holds its ports for the whole slot
	// without ever transmitting.
	Established bool
	// Setup is the effective reconfiguration time: the offset from the hold
	// start at which transmission begins (slot length when never
	// established). It always covers every retried δ plus backoff.
	Setup float64
	// Retries holds the offset from the hold start at which each failed
	// attempt finished paying its δ.
	Retries []float64
}

// Model is a compiled Plan bound to a fabric size. It is a deterministic
// function of the plan except for the per-pair setup-attempt counters, which
// advance as the owning simulation queries Setup — use one Model per run and
// do not share it across goroutines.
type Model struct {
	plan       Plan
	outages    [][]Outage // per port, sorted by start, non-overlapping
	boundaries []float64  // distinct finite outage starts/ends, sorted
	permFrom   []float64  // per port, earliest permanent-outage start (+Inf if none)
	maxRetries int
	degFactor  float64
	strFactor  float64

	attempts   map[attemptKey]uint64
	failBudget int
	anyPerm    bool
}

type attemptKey struct{ coflow, src, dst int }

// Compile validates the plan against the fabric size and builds the model.
// A nil or zero plan compiles to a nil model, which every query treats as
// "no faults".
func (p *Plan) Compile(ports int) (*Model, error) {
	if p.IsZero() {
		return nil, nil
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if ports <= 0 {
		return nil, fmt.Errorf("fault: fabric must have at least one port, got %d", ports)
	}
	m := &Model{
		plan:       *p,
		outages:    make([][]Outage, ports),
		permFrom:   make([]float64, ports),
		maxRetries: p.MaxRetries,
		degFactor:  p.DegradedFactor,
		strFactor:  p.StragglerFactor,
		attempts:   map[attemptKey]uint64{},
		failBudget: p.FailFirstSetups,
	}
	if m.maxRetries == 0 {
		m.maxRetries = 3
	}
	if m.degFactor == 0 {
		m.degFactor = 0.5
	}
	if m.strFactor == 0 {
		m.strFactor = 0.5
	}
	for i := range m.permFrom {
		m.permFrom[i] = math.Inf(1)
	}

	raw := make([][]Outage, ports)
	for _, f := range p.PortFailures {
		if f.Port >= ports {
			return nil, fmt.Errorf("fault: port failure names port %d outside [0,%d)", f.Port, ports)
		}
		end := math.Inf(1)
		if !f.Permanent() {
			end = f.At + f.Duration
		}
		raw[f.Port] = append(raw[f.Port], Outage{Port: f.Port, Start: f.At, End: end})
	}
	if p.TransientRate > 0 {
		for port := 0; port < ports; port++ {
			rng := rand.New(rand.NewSource(int64(m.hash(domTransient, uint64(port)))))
			t := rng.ExpFloat64() / p.TransientRate
			for t < p.Horizon {
				dur := rng.ExpFloat64() * p.MeanOutage
				if dur < timeEps {
					dur = timeEps
				}
				raw[port] = append(raw[port], Outage{Port: port, Start: t, End: t + dur})
				t += dur + rng.ExpFloat64()/p.TransientRate
			}
		}
	}

	seen := map[float64]bool{}
	for port, os := range raw {
		merged := mergeOutages(os)
		m.outages[port] = merged
		for _, o := range merged {
			if o.Permanent() {
				m.anyPerm = true
				m.permFrom[port] = o.Start
			}
			if !seen[o.Start] {
				seen[o.Start] = true
				m.boundaries = append(m.boundaries, o.Start)
			}
			if !o.Permanent() && !seen[o.End] {
				seen[o.End] = true
				m.boundaries = append(m.boundaries, o.End)
			}
		}
	}
	sort.Float64s(m.boundaries)
	return m, nil
}

// mergeOutages sorts and merges overlapping or touching outages; a permanent
// outage swallows everything after its start.
func mergeOutages(os []Outage) []Outage {
	if len(os) == 0 {
		return nil
	}
	sort.Slice(os, func(a, b int) bool { return os[a].Start < os[b].Start })
	out := os[:1]
	for _, o := range os[1:] {
		last := &out[len(out)-1]
		if o.Start <= last.End+timeEps {
			if o.End > last.End {
				last.End = o.End
			}
			continue
		}
		out = append(out, o)
	}
	return append([]Outage(nil), out...)
}

// Outages returns the merged downtime intervals of one port.
func (m *Model) Outages(port int) []Outage {
	if m == nil {
		return nil
	}
	return m.outages[port]
}

// Ports returns the fabric size the model was compiled for (0 on nil).
func (m *Model) Ports() int {
	if m == nil {
		return 0
	}
	return len(m.outages)
}

// Down reports whether the port is inside an outage at time t.
func (m *Model) Down(port int, t float64) bool {
	if m == nil {
		return false
	}
	for _, o := range m.outages[port] {
		if o.Start > t+timeEps {
			return false
		}
		if o.End > t+timeEps {
			return true
		}
	}
	return false
}

// PermanentlyDown reports whether the port is dead forever as of time t.
func (m *Model) PermanentlyDown(port int, t float64) bool {
	return m != nil && m.permFrom[port] <= t+timeEps
}

// PermanentFrom returns the earliest permanent-outage start on the port, or
// +Inf when the port never dies for good.
func (m *Model) PermanentFrom(port int) float64 {
	if m == nil {
		return math.Inf(1)
	}
	return m.permFrom[port]
}

// AnyPermanent reports whether any port eventually fails permanently.
func (m *Model) AnyPermanent() bool { return m != nil && m.anyPerm }

// NextBoundary returns the first finite outage start or end strictly after
// t, or +Inf. Simulators fold this into their next-event times so every
// outage edge is processed.
func (m *Model) NextBoundary(t float64) float64 {
	if m == nil {
		return math.Inf(1)
	}
	i := sort.Search(len(m.boundaries), func(k int) bool { return m.boundaries[k] > t+timeEps })
	if i == len(m.boundaries) {
		return math.Inf(1)
	}
	return m.boundaries[i]
}

// BoundariesAt returns the ports whose outage starts (down) or ends (up)
// coincide with time t, each side sorted ascending.
func (m *Model) BoundariesAt(t float64) (down, up []Outage) {
	if m == nil {
		return nil, nil
	}
	for port := range m.outages {
		for _, o := range m.outages[port] {
			if math.Abs(o.Start-t) <= timeEps {
				down = append(down, o)
			}
			if !o.Permanent() && math.Abs(o.End-t) <= timeEps {
				up = append(up, o)
			}
		}
	}
	return down, up
}

// RestrictPorts drops every outage on ports for which keep reports false and
// rebuilds the boundary index, leaving per-port draws on the kept ports
// untouched (outages, setup failures, degraded links and stragglers are all
// counter-hashed per port or per pair, never globally). The sharded simulator
// uses this to scope one compiled Model to a port-disjoint component: the
// component then sees exactly the outage boundaries of its own ports, so
// port_down events and counters are emitted once across the fleet instead of
// once per component. Safe on nil (no-op).
func (m *Model) RestrictPorts(keep func(port int) bool) {
	if m == nil {
		return
	}
	m.anyPerm = false
	m.boundaries = m.boundaries[:0]
	seen := map[float64]bool{}
	for port := range m.outages {
		if !keep(port) {
			m.outages[port] = nil
			m.permFrom[port] = math.Inf(1)
			continue
		}
		for _, o := range m.outages[port] {
			if o.Permanent() {
				m.anyPerm = true
			}
			if !seen[o.Start] {
				seen[o.Start] = true
				m.boundaries = append(m.boundaries, o.Start)
			}
			if !o.Permanent() && !seen[o.End] {
				seen[o.End] = true
				m.boundaries = append(m.boundaries, o.End)
			}
		}
	}
	sort.Float64s(m.boundaries)
}

// RateFactor returns the rate multiplier for a flow of the Coflow on the
// (src, dst) pair: the product of the link's degradation factor and the
// flow's straggler factor, 1 when neither applies. The factor is constant
// over the whole run.
func (m *Model) RateFactor(coflowID, src, dst int) float64 {
	if m == nil {
		return 1
	}
	f := 1.0
	if p := m.plan.DegradedLinkProb; p > 0 && m.u01(domLink, uint64(src), uint64(dst)) < p {
		f *= m.degFactor
	}
	if p := m.plan.StragglerProb; p > 0 && m.u01(domStraggler, uint64(coflowID), uint64(src), uint64(dst)) < p {
		f *= m.strFactor
	}
	return f
}

// Setup resolves one reservation's circuit establishment: slot is the
// reservation's full hold length, delta the planned setup δ. Each attempt
// fails independently with the plan's probability (after the deterministic
// fail-first budget drains); a failed attempt pays δ and backs off δ·2ⁱ
// before the next. Attempt draws consume a per-(coflow, src, dst) counter,
// so outcomes depend only on how many attempts that pair made before — not
// on wall-clock or scheduling order noise.
func (m *Model) Setup(coflowID, src, dst int, slot, delta float64) SetupOutcome {
	if m == nil || (m.plan.SetupFailProb == 0 && m.failBudget <= 0) {
		return SetupOutcome{Established: true, Setup: delta}
	}
	off := 0.0
	// Backoff{Base: δ, Factor: 2} reproduces the historical inline doubling
	// (δ, 2δ, 4δ, …) bit-for-bit; the shared type exists so the daemon's
	// replan retries run on the same machinery.
	bo := Backoff{Base: delta, Factor: 2}
	var retries []float64
	for attempt := 0; ; attempt++ {
		if off+delta > slot+timeEps {
			// No room for another attempt: the ports stay held but the
			// circuit never carries a byte.
			return SetupOutcome{Setup: slot, Retries: retries}
		}
		if !m.attemptFails(coflowID, src, dst) {
			return SetupOutcome{Established: true, Setup: off + delta, Retries: retries}
		}
		off += delta
		retries = append(retries, off)
		if attempt >= m.maxRetries {
			return SetupOutcome{Setup: slot, Retries: retries}
		}
		off += bo.Delay(attempt)
	}
}

func (m *Model) attemptFails(coflowID, src, dst int) bool {
	if m.failBudget > 0 {
		m.failBudget--
		return true
	}
	p := m.plan.SetupFailProb
	if p <= 0 {
		return false
	}
	k := attemptKey{coflowID, src, dst}
	n := m.attempts[k]
	m.attempts[k] = n + 1
	return m.u01(domSetup, uint64(coflowID), uint64(src), uint64(dst), n) < p
}

// Hash domains keep the independent random streams from colliding.
const (
	domTransient uint64 = 0x7472_616e // "tran"
	domSetup     uint64 = 0x7365_7475 // "setu"
	domLink      uint64 = 0x6c69_6e6b // "link"
	domStraggler uint64 = 0x7374_7261 // "stra"
)

// splitmix64 is the SplitMix64 finalizer — a cheap, well-distributed mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (m *Model) hash(domain uint64, vs ...uint64) uint64 {
	h := splitmix64(uint64(m.plan.Seed) ^ domain)
	for _, v := range vs {
		h = splitmix64(h ^ v)
	}
	return h
}

// u01 maps a hash to a uniform float64 in [0, 1).
func (m *Model) u01(domain uint64, vs ...uint64) float64 {
	return float64(m.hash(domain, vs...)>>11) / (1 << 53)
}
