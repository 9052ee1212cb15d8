package obs

import (
	"fmt"
	"strings"
	"text/tabwriter"
)

// FormatSummaries renders the observer's root and scoped summaries as an
// aligned text table — the block cmd/repro and cmd/sunflow print under
// -metrics. Scopes (and the root) that recorded nothing are skipped.
func FormatSummaries(o *Observer) string {
	if o == nil {
		return ""
	}
	type row struct {
		name string
		s    Summary
	}
	var rows []row
	if s := o.Summary(); !s.zero() {
		rows = append(rows, row{"(root)", s})
	}
	for _, name := range o.ScopeNames() {
		if s := o.Scoped(name).Summary(); !s.zero() {
			rows = append(rows, row{name, s})
		}
	}
	if len(rows) == 0 {
		return "metrics: nothing recorded\n"
	}
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "scope\tcircuits\tδ seconds\tduty\tbytes\tsched passes\tsched s\tplanner\treservations\texamined\tcredit visits\torder keys")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%.3f\t%s\t%s\t%d\t%.4f\t%s\t%d\t%d\t%d\t%d\n",
			r.name, r.s.CircuitSetups, r.s.SetupSeconds, formatDuty(r.s),
			formatBytes(r.s.BytesDelivered), r.s.SchedPasses, r.s.SchedSeconds,
			formatPlanner(r.s), r.s.Reservations, r.s.IntraExamined,
			r.s.CreditVisits, r.s.OrderKeys)
	}
	w.Flush()
	return sb.String()
}

// zero reports whether nothing was recorded under this summary.
func (s Summary) zero() bool {
	return s == Summary{}
}

// formatDuty renders the duty cycle, or "-" for packet-switched scopes that
// never establish circuits.
func formatDuty(s Summary) string {
	if s.HoldSeconds <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.3f", s.DutyCycle)
}

// formatPlanner renders which intra-Coflow planner path produced the passes
// — the trace stream is path-invariant by design, so this column (and the
// underlying counters) is the only record. "-" when no intra pass ran.
func formatPlanner(s Summary) string {
	switch {
	case s.IntraFastSeconds > 0 && s.IntraRefSeconds > 0:
		return fmt.Sprintf("mixed %.4f/%.4f", s.IntraFastSeconds, s.IntraRefSeconds)
	case s.IntraRefSeconds > 0:
		return fmt.Sprintf("ref %.4f", s.IntraRefSeconds)
	case s.IntraFastSeconds > 0:
		return fmt.Sprintf("fast %.4f", s.IntraFastSeconds)
	default:
		return "-"
	}
}

// formatBytes renders a byte count with a binary-free SI unit.
func formatBytes(b float64) string {
	switch {
	case b >= 1e12:
		return fmt.Sprintf("%.2f TB", b/1e12)
	case b >= 1e9:
		return fmt.Sprintf("%.2f GB", b/1e9)
	case b >= 1e6:
		return fmt.Sprintf("%.2f MB", b/1e6)
	case b > 0:
		return fmt.Sprintf("%.0f B", b)
	default:
		return "0"
	}
}
