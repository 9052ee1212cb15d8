package core

import (
	"fmt"
	"math"
)

// Scheduling instants and durations are int64 nanoseconds ("ticks"), so
// every comparison in the PRT, the intra search and the circuit engine is
// exact. Seconds enter through Nanos and leave through Seconds only.

// Forever is the instant that never comes: no later commitment or release,
// the end of a permanent outage.
const Forever = math.MaxInt64

// Nanos converts seconds to ticks, rounding to the nearest nanosecond. NaN,
// ±Inf and values outside ±(2⁶³−1) ns are an error: no int64 holds them, and
// Go's conversion of such a float is implementation-defined.
func Nanos(sec float64) (int64, error) {
	ns := math.Round(sec * 1e9)
	if math.IsNaN(ns) || ns >= 1<<63 || ns <= -(1<<63) {
		return 0, fmt.Errorf("core: time %v s outside ±%d ns", sec, int64(Forever))
	}
	return int64(ns), nil
}

// Seconds converts ticks to seconds; Forever maps to +Inf.
func Seconds(ns int64) float64 {
	if ns == Forever {
		return math.Inf(1)
	}
	return float64(ns) / 1e9
}

// ProcTicks returns p(b) = ⌈8·b·1e9 / B⌉, the ticks a circuit at bps bits/s
// needs to carry b whole bytes: every demand's processing time and every
// drain instant.
func ProcTicks(b int64, bps float64) int64 {
	if p := math.Ceil(float64(max(b, 0)) * 8e9 / bps); p < 1<<63 {
		return int64(p)
	}
	return Forever
}

// carried returns ⌊d·B / 8e9⌋, the whole bytes d ticks of transmission at
// bps bits/s carry.
func carried(d int64, bps float64) int64 { return int64(float64(d) * bps / 8e9) }
