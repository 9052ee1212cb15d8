//go:build !slowbench

package sunflow

import (
	"testing"

	"sunflow/internal/bench"
)

// BenchmarkStarvationAvoidance runs the §4.2 starvation experiment at a
// reduced scale (a 4 s hog transfer and a 10-Coflow overhead workload) so
// the default benchmark suite stays fast; build with -tags slowbench for the
// full-scale experiment under the same benchmark name.
func BenchmarkStarvationAvoidance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.StarvationSized(bench.Config{Seed: 1}, FairWindows{N: 4, T: 5e8, Tau: 5e7}, 5e8, 10); err != nil {
			b.Fatal(err)
		}
	}
}
