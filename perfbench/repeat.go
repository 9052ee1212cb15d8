package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// repeatMode runs each listed workload once per seed, seed, seed+1, ..., in
// a fresh process (peak RSS is per process), then prints every metric's
// median, quartiles and spread — (q3 − q1) / median — against its bound.
// It fails when a run fails or an end-to-end spread other than setup_s's
// exceeds its bound.
func repeatMode(sp *spec, o options, n int, w io.Writer) error {
	if n < 2 {
		return fmt.Errorf("--repeat needs at least 2 runs for quartiles, got %d", n)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	declared, tr := sp.EndToEnd, "0"
	if o.trace {
		declared, tr = sp.PerLayer, "1"
	}
	over := 0
	for _, wl := range strings.Split(o.workload, ",") {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			seed := o.seed + int64(i)
			args := []string{"--workload", wl, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
				"--trace", tr, "--out", o.out}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				w.Write(out)
				return fmt.Errorf("%s seed %d: %w", wl, seed, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", wl, seed, err)
			}
			fmt.Fprintf(w, "%s seed %d: correct=%v attempted=%d failed=%d\n", wl, seed, res.Correct, res.Attempted, res.Failed)
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		fmt.Fprintf(w, "\n%s over %d seeds from %d:\n%-28s %-6s %12s %12s %12s %8s %6s\n",
			wl, n, o.seed, "metric", "unit", "q1", "median", "q3", "spread", "bound")
		for _, m := range declared {
			q1, q2, q3 := quartiles(values[m.Name])
			spread := (q3 - q1) / math.Abs(q2)
			verdict := ""
			if !o.trace {
				switch {
				case spread <= m.Bound/3:
					verdict = "steady"
				case spread <= m.Bound:
					verdict = "within"
				case m.Name == "setup_s":
					verdict = "wide (set-up spread is not bounded)"
				default:
					verdict = "OVER BOUND"
					over++
				}
			}
			fmt.Fprintf(w, "%-28s %-6s %12.6g %12.6g %12.6g %8.4f %6.3g %s\n", m.Name, m.Unit, q1, q2, q3, spread, m.Bound, verdict)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d end-to-end spreads exceed their bounds", over)
	}
	return nil
}
