// Package coflow defines the Coflow traffic model used throughout the
// repository: collections of flows that share a common performance goal,
// following Chowdhury and Stoica's Coflow abstraction and the formulation in
// the Sunflow paper (§2.2).
//
// A Coflow is a set of flows, each moving a number of bytes from an input
// port to an output port of a single non-blocking N-port switch. The package
// provides the demand-matrix view used by matrix-decomposition schedulers,
// the sender/receiver classification of Table 4 (one-to-one, one-to-many,
// many-to-one, many-to-many), and the theoretical completion-time lower
// bounds TpL and TcL of §2.4.
package coflow

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Flow is a single point-to-point transfer inside a Coflow: Bytes bytes from
// input port Src to output port Dst. Ports are zero-based indices into the
// fabric.
type Flow struct {
	Src   int
	Dst   int
	Bytes float64
}

// ProcTime returns the data processing time p(i,j) = d(i,j)/B required on the
// circuit [Src, Dst], in seconds, for link bandwidth linkBps in bits per
// second (Equation 1 of the paper).
func (f Flow) ProcTime(linkBps float64) float64 {
	return f.Bytes * 8 / linkBps
}

// Coflow is a collection of flows that share one performance objective. The
// scheduling goal at the intra-Coflow level is to minimize the Coflow
// Completion Time (CCT): the time from Arrival until the last flow finishes.
type Coflow struct {
	// ID identifies the Coflow within a trace. IDs are not required to be
	// dense but must be unique within a workload.
	ID int
	// Arrival is the Coflow arrival time in seconds from the start of the
	// trace. Serialized (intra-Coflow) experiments ignore it.
	Arrival float64
	// Flows lists the member flows. Flows with zero bytes are permitted in
	// the slice but are ignored by all schedulers and bounds.
	Flows []Flow
}

// Class is the sender-to-receiver ratio category of a Coflow (Table 4).
type Class int

// Coflow classes in the order reported by the paper.
const (
	OneToOne Class = iota
	OneToMany
	ManyToOne
	ManyToMany
)

// String returns the abbreviation used in the paper's Table 4.
func (c Class) String() string {
	switch c {
	case OneToOne:
		return "O2O"
	case OneToMany:
		return "O2M"
	case ManyToOne:
		return "M2O"
	case ManyToMany:
		return "M2M"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Classes lists all classes in presentation order.
var Classes = []Class{OneToOne, OneToMany, ManyToOne, ManyToMany}

// New returns a Coflow with the given id, arrival time and flows. Flows are
// copied, so the caller may reuse the slice.
func New(id int, arrival float64, flows []Flow) *Coflow {
	c := &Coflow{ID: id, Arrival: arrival, Flows: make([]Flow, len(flows))}
	copy(c.Flows, flows)
	return c
}

// Validate reports an error if any flow has a negative size or a port outside
// [0, numPorts), or if two flows share the same (Src, Dst) pair. Schedulers
// assume at most one flow per port pair; merge duplicates with Normalize
// first if needed.
//
// Scheduler inputs are normally (Src, Dst)-sorted, so duplicates are found by
// comparing each flow with its predecessor while the flows stay strictly
// ascending; only from the first out-of-order flow on does Validate fall back
// to a set of the pairs seen. The checks and their per-flow order are the
// same either way.
func (c *Coflow) Validate(numPorts int) error {
	var seen map[[2]int]bool // nil while c.Flows[:k] is strictly ascending
	for k, f := range c.Flows {
		if f.Src < 0 || f.Src >= numPorts {
			return fmt.Errorf("coflow %d: src port %d out of range [0,%d)", c.ID, f.Src, numPorts)
		}
		if f.Dst < 0 || f.Dst >= numPorts {
			return fmt.Errorf("coflow %d: dst port %d out of range [0,%d)", c.ID, f.Dst, numPorts)
		}
		if f.Bytes < 0 || math.IsNaN(f.Bytes) || math.IsInf(f.Bytes, 0) {
			return fmt.Errorf("coflow %d: flow %d->%d has invalid size %v", c.ID, f.Src, f.Dst, f.Bytes)
		}
		if seen == nil {
			if k == 0 || pairLess(c.Flows[k-1], f) {
				continue // above every earlier pair
			}
			// The first out-of-order or repeated pair: fall back to a set.
			seen = make(map[[2]int]bool, len(c.Flows))
			for _, g := range c.Flows[:k] {
				seen[[2]int{g.Src, g.Dst}] = true
			}
		}
		key := [2]int{f.Src, f.Dst}
		if seen[key] {
			return fmt.Errorf("coflow %d: duplicate flow for port pair %d->%d", c.ID, f.Src, f.Dst)
		}
		seen[key] = true
	}
	return nil
}

// pairLess orders flows by (Src, Dst).
func pairLess(a, b Flow) bool {
	return a.Src < b.Src || a.Src == b.Src && a.Dst < b.Dst
}

// Normalize returns a copy of the Coflow with zero-byte flows dropped and
// flows on the same (Src, Dst) pair merged by summing their sizes. Flows are
// sorted by (Src, Dst) so the result is canonical.
func (c *Coflow) Normalize() *Coflow {
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

// Clone returns a deep copy of the Coflow.
func (c *Coflow) Clone() *Coflow {
	return New(c.ID, c.Arrival, c.Flows)
}

// NumFlows returns |C|, the number of flows with non-zero demand.
func (c *Coflow) NumFlows() int {
	n := 0
	for _, f := range c.Flows {
		if f.Bytes > 0 {
			n++
		}
	}
	return n
}

// TotalBytes returns the sum of all flow sizes in bytes.
func (c *Coflow) TotalBytes() float64 {
	var sum float64
	for _, f := range c.Flows {
		sum += f.Bytes
	}
	return sum
}

// MinFlowBytes returns the smallest non-zero flow size, or 0 if the Coflow
// has no demand. It is the denominator of α in Lemma 2.
func (c *Coflow) MinFlowBytes() float64 {
	min := math.Inf(1)
	for _, f := range c.Flows {
		if f.Bytes > 0 && f.Bytes < min {
			min = f.Bytes
		}
	}
	if math.IsInf(min, 1) {
		return 0
	}
	return min
}

// Senders returns the sorted distinct input ports with non-zero demand.
func (c *Coflow) Senders() []int {
	return c.distinctPorts(func(f Flow) int { return f.Src })
}

// Receivers returns the sorted distinct output ports with non-zero demand.
func (c *Coflow) Receivers() []int {
	return c.distinctPorts(func(f Flow) int { return f.Dst })
}

func (c *Coflow) distinctPorts(sel func(Flow) int) []int {
	set := make(map[int]bool)
	for _, f := range c.Flows {
		if f.Bytes > 0 {
			set[sel(f)] = true
		}
	}
	ports := make([]int, 0, len(set))
	for p := range set {
		ports = append(ports, p)
	}
	sort.Ints(ports)
	return ports
}

// Classify returns the Coflow's sender-to-receiver ratio class, as in
// Table 4 of the paper. A Coflow with no demand classifies as OneToOne.
func (c *Coflow) Classify() Class {
	ns, nr := len(c.Senders()), len(c.Receivers())
	switch {
	case ns <= 1 && nr <= 1:
		return OneToOne
	case ns <= 1:
		return OneToMany
	case nr <= 1:
		return ManyToOne
	default:
		return ManyToMany
	}
}

// AvgProcTime returns pavg = Σ p(i,j) / |C|, the average data processing time
// over the Coflow's non-zero flows at link bandwidth linkBps (§5.3.2). It is
// 0 for a Coflow with no demand.
func (c *Coflow) AvgProcTime(linkBps float64) float64 {
	var sum float64
	n := 0
	for _, f := range c.Flows {
		if f.Bytes > 0 {
			sum += f.ProcTime(linkBps)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Alpha returns α = δ / min(d(i,j)/B), the ratio of the circuit
// reconfiguration delay to the shortest flow's processing time (Lemma 2).
// It returns +Inf for a Coflow with no demand.
func (c *Coflow) Alpha(linkBps, delta float64) float64 {
	min := c.MinFlowBytes()
	if min == 0 {
		return math.Inf(1)
	}
	return delta / (min * 8 / linkBps)
}

// DemandMatrix returns the dense n×n demand matrix D in bytes, with rows as
// input ports and columns as output ports. Matrix-decomposition schedulers
// (Solstice, TMS, Edmond) consume this view.
func (c *Coflow) DemandMatrix(n int) [][]float64 {
	d := make([][]float64, n)
	buf := make([]float64, n*n)
	for i := range d {
		d[i], buf = buf[:n:n], buf[n:]
	}
	for _, f := range c.Flows {
		d[f.Src][f.Dst] += f.Bytes
	}
	return d
}

// PortSums returns per-input-port and per-output-port byte totals for all
// flows, keyed by port index. Only ports with non-zero demand appear.
func (c *Coflow) PortSums() (in, out map[int]float64) {
	in = make(map[int]float64)
	out = make(map[int]float64)
	for _, f := range c.Flows {
		if f.Bytes > 0 {
			in[f.Src] += f.Bytes
			out[f.Dst] += f.Bytes
		}
	}
	return in, out
}

// PacketLowerBound returns TpL, the CCT lower bound in a packet-switched
// network (Equation 2): the maximum over all ports of the total processing
// time the port must serve. Each port's total is summed in flow order, as
// PortSums does, over a dense per-port buffer instead of maps: it is the
// shortest-first policy key, recomputed whenever a live Coflow's remaining
// demand changes.
func (c *Coflow) PacketLowerBound(linkBps float64) float64 {
	lo, hi := 0, -1 // the port range; empty for a Coflow without flows
	if len(c.Flows) > 0 {
		lo, hi = c.Flows[0].Src, c.Flows[0].Src
	}
	for _, f := range c.Flows {
		lo, hi = min(lo, f.Src, f.Dst), max(hi, f.Src, f.Dst)
	}
	n := hi - lo + 1
	var buf [512]float64
	sums := buf[:]
	if 2*n > len(buf) {
		sums = make([]float64, 2*n)
	}
	sums = sums[:2*n]
	in, out := sums[:n], sums[n:]
	for _, f := range c.Flows {
		if f.Bytes > 0 {
			in[f.Src-lo] += f.Bytes
			out[f.Dst-lo] += f.Bytes
		}
	}
	var maxBytes float64
	for _, b := range sums {
		maxBytes = math.Max(maxBytes, b)
	}
	return maxBytes * 8 / linkBps
}

// CircuitLowerBound returns TcL, the CCT lower bound in a circuit-switched
// network under the not-all-stop model (Equations 3 and 4): every flow pays
// at least one reconfiguration delay delta on each of its two ports.
func (c *Coflow) CircuitLowerBound(linkBps, delta float64) float64 {
	inT := make(map[int]float64)
	outT := make(map[int]float64)
	for _, f := range c.Flows {
		if f.Bytes <= 0 {
			continue
		}
		t := f.ProcTime(linkBps) + delta
		inT[f.Src] += t
		outT[f.Dst] += t
	}
	var max float64
	for _, t := range inT {
		max = math.Max(max, t)
	}
	for _, t := range outT {
		max = math.Max(max, t)
	}
	return max
}

// ErrEmpty is returned by Combine when no Coflows are supplied.
var ErrEmpty = errors.New("coflow: no coflows to combine")

// Combine merges several Coflows into a single Coflow with the given id, as
// in the same-priority combining option of §4.2. The combined arrival time is
// the earliest member arrival; flows on the same port pair are merged.
func Combine(id int, coflows []*Coflow) (*Coflow, error) {
	if len(coflows) == 0 {
		return nil, ErrEmpty
	}
	arrival := math.Inf(1)
	var flows []Flow
	for _, c := range coflows {
		arrival = math.Min(arrival, c.Arrival)
		flows = append(flows, c.Flows...)
	}
	combined := &Coflow{ID: id, Arrival: arrival, Flows: flows}
	return combined.Normalize(), nil
}

// MaxPort returns the highest port index referenced by the Coflow plus one,
// i.e. the minimum fabric size able to carry it. A Coflow with no flows needs
// zero ports.
func (c *Coflow) MaxPort() int {
	max := -1
	for _, f := range c.Flows {
		if f.Src > max {
			max = f.Src
		}
		if f.Dst > max {
			max = f.Dst
		}
	}
	return max + 1
}

// String summarizes the Coflow for logs and error messages.
func (c *Coflow) String() string {
	return fmt.Sprintf("coflow %d: %d flows, %.0f bytes, %s, arrival %.3fs",
		c.ID, c.NumFlows(), c.TotalBytes(), c.Classify(), c.Arrival)
}
