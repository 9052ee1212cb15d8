package sim

import (
	"testing"

	"sunflow/internal/core"
)

// withReference returns opts planning with the scan-based reference
// scheduler loop and the full-rebuild pass — the oracle side of the
// differential tests.
func withReference(opts CircuitOptions) CircuitOptions {
	opts.reference = true
	return opts
}

// setFullReplan sets SUNFLOW_FULL_REPLAN for the runs that follow: on forces
// the full-rebuild pass, off restores schedule reuse. The test's cleanup
// restores the caller's environment.
func setFullReplan(t testing.TB, on bool) {
	v := ""
	if on {
		v = "1"
	}
	t.Setenv("SUNFLOW_FULL_REPLAN", v)
}

// ns converts a test's seconds to ticks.
func ns(sec float64) int64 {
	t, err := core.Nanos(sec)
	if err != nil {
		panic(err)
	}
	return t
}
