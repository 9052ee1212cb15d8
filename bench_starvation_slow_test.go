//go:build slowbench

package sunflow

import (
	"testing"

	"sunflow/internal/bench"
)

// BenchmarkStarvationAvoidance at the full experiment scale (the 4 GB hog
// and 40-Coflow overhead workload of cmd/repro). The default build runs a
// reduced-scale variant under the same name; compare across builds with
// care — the two populations are deliberately different sizes.
func BenchmarkStarvationAvoidance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Starvation(bench.Config{Seed: 1}, FairWindows{N: 4, T: 5e8, Tau: 5e7}); err != nil {
			b.Fatal(err)
		}
	}
}
