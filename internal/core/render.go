package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// PortEvent is one entry of a sending machine's circuit program: the §6
// deployment sketch has the per-host agent receive its row of the PRT and
// transmit at line rate whenever its circuit is up.
type PortEvent struct {
	// Peer is the output port the circuit connects to.
	Peer int
	// CoflowID identifies whose traffic the agent should send.
	CoflowID int
	// SetupAt is the tick the switch starts configuring the circuit at.
	SetupAt int64
	// TransmitAt is the tick the circuit is up and the host may send.
	TransmitAt int64
	// ReleaseAt is the tick the circuit is torn down.
	ReleaseAt int64
	// Bytes is how many whole bytes the host should send during the window.
	Bytes int64
}

// PortProgram extracts the input port's reservation row from a set of
// schedules, ordered by time — what a Sunflow controller would push to the
// sending machine's agent (§6).
func PortProgram(in int, scheds ...*Schedule) []PortEvent {
	var events []PortEvent
	for _, s := range scheds {
		for _, r := range s.Reservations {
			if r.In != in {
				continue
			}
			events = append(events, PortEvent{
				Peer:       r.Out,
				CoflowID:   r.CoflowID,
				SetupAt:    r.Start,
				TransmitAt: r.TransmitStart(),
				ReleaseAt:  r.End,
				Bytes:      r.Bytes,
			})
		}
	}
	sort.Slice(events, func(a, b int) bool { return events[a].SetupAt < events[b].SetupAt })
	return events
}

// Gantt renders the schedules' input-port timelines as fixed-width text, one
// row per input port, mirroring Figure 1c: '#' marks reconfiguration, digits
// (the output port modulo 10) mark transmission, '.' marks idle time.
//
// width is the number of character cells; the time axis spans [start, end)
// of the union of all reservations. Rendering is lossy for reservations
// shorter than a cell — they claim at least one cell, later marks win.
func Gantt(width int, scheds ...*Schedule) string {
	var all []Reservation
	for _, s := range scheds {
		all = append(all, s.Reservations...)
	}
	if len(all) == 0 || width <= 0 {
		return ""
	}
	start, end := int64(math.MaxInt64), int64(math.MinInt64)
	maxIn := 0
	for _, r := range all {
		start = min(start, r.Start)
		end = max(end, r.End)
		if r.In > maxIn {
			maxIn = r.In
		}
	}
	if end <= start {
		return ""
	}
	scale := float64(width) / float64(end-start)
	cell := func(t int64) int {
		c := int(float64(t-start) * scale)
		if c < 0 {
			c = 0
		}
		if c >= width {
			c = width - 1
		}
		return c
	}

	rows := make([][]byte, maxIn+1)
	used := make([]bool, maxIn+1)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(".", width))
	}
	sort.Slice(all, func(a, b int) bool { return all[a].Start < all[b].Start })
	for _, r := range all {
		used[r.In] = true
		lo, hi := cell(r.Start), cell(r.End-1)
		txLo := cell(r.TransmitStart())
		mark := byte('0' + r.Out%10)
		for c := lo; c <= hi; c++ {
			if c < txLo {
				rows[r.In][c] = '#'
			} else {
				rows[r.In][c] = mark
			}
		}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "time %.3fs .. %.3fs ('#' setup, digit = out port mod 10)\n", Seconds(start), Seconds(end))
	for i, row := range rows {
		if !used[i] {
			continue
		}
		fmt.Fprintf(&sb, "in.%-3d |%s|\n", i, row)
	}
	return sb.String()
}
