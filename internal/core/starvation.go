package core

import (
	"fmt"
	"sort"
)

// FairWindows implements the starvation-avoidance design of §4.2: time is
// divided into recurring intervals of length T+τ, all in ticks (ns). The
// first T of
// each interval belong to normal (priority-ordered) Sunflow scheduling; the
// trailing τ seconds run one fixed assignment A_k from a round-robin list
// Φ = {A_1,…,A_N} whose union covers all N² circuits, so every Coflow
// receives non-zero service within every N·(T+τ) period regardless of
// priority.
//
// FairWindows implements Blackout: installed on a PRT it prevents normal
// reservations from intruding into the τ windows.
type FairWindows struct {
	// N is the switch port count; it is also the number of assignments in Φ.
	N int
	// T is the length of the normal scheduling interval; must satisfy T ≫ τ.
	T int64
	// Tau is the fair-window length τ; must exceed the reconfiguration
	// delay δ so a window can carry data.
	Tau int64
	// Offset shifts the phase of the first window (the first fair window is
	// [Offset+T, Offset+T+Tau)). Usually zero.
	Offset int64
}

// Validate reports an error for parameters violating T ≫ τ > δ (checked as
// T > τ > delta).
func (fw FairWindows) Validate(delta int64) error {
	if fw.N <= 0 {
		return fmt.Errorf("core: fair windows need a positive port count, got %d", fw.N)
	}
	if !(fw.Tau > delta) {
		return fmt.Errorf("core: fair window τ=%v must exceed δ=%v", fw.Tau, delta)
	}
	if !(fw.T > fw.Tau) {
		return fmt.Errorf("core: fair windows require T=%v > τ=%v", fw.T, fw.Tau)
	}
	return nil
}

// period returns T+τ.
func (fw FairWindows) period() int64 { return fw.T + fw.Tau }

// indexAt returns the index k of the (T+τ)-interval containing t.
func (fw FairWindows) indexAt(t int64) int64 {
	d, p := t-fw.Offset, fw.period()
	k := d / p
	if d%p < 0 {
		k-- // floor, not truncation, before the offset
	}
	return k
}

// windowStart returns the start of the fair window of interval k.
func (fw FairWindows) windowStart(k int64) int64 { return fw.Offset + k*fw.period() + fw.T }

// Covers reports whether t lies inside a fair (τ) window.
func (fw FairWindows) Covers(t int64) bool {
	ws := fw.windowStart(fw.indexAt(t))
	return t >= ws && t < ws+fw.Tau
}

// NextStart returns the start of the first fair window beginning after t.
func (fw FairWindows) NextStart(t int64) int64 {
	ws := fw.windowStart(fw.indexAt(t))
	if ws > t {
		return ws
	}
	return ws + fw.period()
}

// NextEnd returns the end of the first fair window ending after t.
func (fw FairWindows) NextEnd(t int64) int64 {
	we := fw.windowStart(fw.indexAt(t)) + fw.Tau
	if we > t {
		return we
	}
	return we + fw.period()
}

// Window is one concrete fair window with its fixed assignment.
type Window struct {
	// Index is the window's sequence number k (0-based).
	Index int
	// Start and End delimit the τ interval.
	Start, End int64
	// Assign is the fixed assignment A_(k mod N): input port i connects to
	// output port Assign[i].
	Assign []int
}

// Assignment returns A_k of the round-robin list Φ: input port i is
// connected to output port (i+k) mod N, so Φ's N assignments cover all N²
// circuits.
func (fw FairWindows) Assignment(k int) []int {
	a := make([]int, fw.N)
	shift := ((k % fw.N) + fw.N) % fw.N
	for i := range a {
		a[i] = (i + shift) % fw.N
	}
	return a
}

// WindowsIn returns the fair windows overlapping [from, to), in order.
func (fw FairWindows) WindowsIn(from, to int64) []Window {
	var out []Window
	k := max(fw.indexAt(from), 0)
	for {
		ws := fw.windowStart(k)
		we := ws + fw.Tau
		if ws >= to {
			return out
		}
		if we > from {
			out = append(out, Window{Index: int(k), Start: ws, End: we, Assign: fw.Assignment(int(k))})
		}
		k++
	}
}

// ShareCircuit computes the bytes served to each of the remaining demands
// when they share one circuit for the given transmit duration at linkBps
// with equal instantaneous rates (§4.2: "subflows from all Coflows share the
// link bandwidth B on the circuit"). The returned slice parallels remaining.
func ShareCircuit(remaining []float64, seconds, linkBps float64) []float64 {
	out := make([]float64, len(remaining))
	if seconds <= 0 || len(remaining) == 0 {
		return out
	}
	capBytes := seconds * linkBps / 8

	// Water-fill: with equal rates, flows finish in ascending order of
	// remaining demand; every active flow has received the same amount when
	// one finishes.
	idx := make([]int, len(remaining))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return remaining[idx[a]] < remaining[idx[b]] })

	level := 0.0
	for pos, id := range idx {
		active := float64(len(idx) - pos)
		r := remaining[id]
		phase := (r - level) * active
		if phase <= capBytes {
			capBytes -= phase
			level = r
			out[id] = r
			continue
		}
		level += capBytes / active
		for _, rest := range idx[pos:] {
			out[rest] = level
		}
		break
	}
	return out
}
