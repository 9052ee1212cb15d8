package obs

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// validatePromText is a minimal checker for the Prometheus text exposition
// grammar: every non-comment line is `name[{label="value"}] number`, TYPE
// comments name metrics that actually appear, and histogram buckets are
// cumulative with a closing +Inf.
func validatePromText(t *testing.T, text string) {
	t.Helper()
	typed := map[string]string{}
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Fatalf("blank line in exposition output")
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			typed[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line without value: %q", line)
		}
		val := line[sp+1:]
		if _, err := strconv.ParseFloat(strings.TrimPrefix(val, "+"), 64); err != nil {
			t.Fatalf("unparsable sample value %q in %q", val, line)
		}
		series := line[:sp]
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("unterminated label set in %q", line)
			}
			name = series[:i]
			labels := series[i+1 : len(series)-1]
			for _, l := range strings.Split(labels, ",") {
				eq := strings.IndexByte(l, '=')
				if eq < 0 || len(l) < eq+3 || l[eq+1] != '"' || l[len(l)-1] != '"' {
					t.Fatalf("malformed label %q in %q", l, line)
				}
			}
		}
		for _, c := range name {
			ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
			if !ok {
				t.Fatalf("invalid metric name character %q in %q", c, name)
			}
		}
		seen[name] = true
	}
	for name, kind := range typed {
		base := name
		if kind == "histogram" {
			if !seen[name+"_sum"] || !seen[name+"_count"] || !seen[name+"_bucket"] {
				t.Errorf("histogram %s missing _sum/_count/_bucket samples", name)
			}
			continue
		}
		if !seen[base] {
			t.Errorf("TYPE declared for %s but no sample emitted", name)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	o := NewWith(reg, nil)
	o.CircuitSetups.Add(3)
	o.SetupSeconds.Add(0.25)
	o.QueueDepth.Set(17)
	o.QueueDepth.Set(5)
	o.SchedPassTime.Observe(0.001)
	o.SchedPassTime.Observe(0.004)
	o.InBusySeconds.Add(0, 1.5)
	o.InBusySeconds.Add(3, 2.5)
	o.Scoped("sunflow").CircuitSetups.Inc()
	o.IntraSkipped.Add(5)
	o.IntraContinued.Add(2)

	var sb strings.Builder
	if err := WritePrometheus(&sb, reg); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	validatePromText(t, out)

	for _, want := range []string{
		"# TYPE circuit_setups counter\ncircuit_setups 3\n",
		"circuit_setup_seconds 0.25\n",
		"sim_queue_depth 5\n",
		"sim_queue_depth_high 17\n",
		"sched_pass_seconds_count 2\n",
		"sched_pass_seconds_bucket{le=\"+Inf\"} 2\n",
		"port_in_busy_seconds{port=\"0\"} 1.5\n",
		"port_in_busy_seconds{port=\"3\"} 2.5\n",
		"sunflow_circuit_setups 1\n",
		"# TYPE sched_intra_skipped counter\nsched_intra_skipped 5\n",
		"# TYPE sched_intra_continued counter\nsched_intra_continued 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := WritePrometheus(&sb, nil); err != nil {
		t.Errorf("nil registry: %v", err)
	}
}

// TestPromHistogramCumulative checks skipped empty buckets keep cumulative
// counts monotone and consistent with the total.
func TestPromHistogramCumulative(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h")
	for _, x := range []float64{1e-6, 1e-6, 0.5, 1024, 1024, 1024} {
		h.Observe(x)
	}
	var sb strings.Builder
	if err := WritePrometheus(&sb, reg); err != nil {
		t.Fatal(err)
	}
	prev := int64(-1)
	var last int64
	for _, line := range strings.Split(sb.String(), "\n") {
		if !strings.HasPrefix(line, "h_bucket{") {
			continue
		}
		n, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		if n < prev {
			t.Errorf("bucket counts not cumulative: %d after %d in %q", n, prev, line)
		}
		prev, last = n, n
	}
	if last != 6 {
		t.Errorf("final cumulative bucket = %d, want 6 (the +Inf bucket)", last)
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"circuit.setups":         "circuit_setups",
		"sunflow.sched.passes":   "sunflow_sched_passes",
		"9lives":                 "_9lives",
		"ok_name:with:colons":    "ok_name:with:colons",
		"spaces and-dashes.dots": "spaces_and_dashes_dots",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestPromFloat covers the special values Prometheus spells specially.
func TestPromFloat(t *testing.T) {
	if got := promFloat(math.Inf(1)); got != "+Inf" {
		t.Errorf("+Inf rendered %q", got)
	}
	if got := promFloat(math.Inf(-1)); got != "-Inf" {
		t.Errorf("-Inf rendered %q", got)
	}
	if got := promFloat(math.NaN()); got != "NaN" {
		t.Errorf("NaN rendered %q", got)
	}
}
