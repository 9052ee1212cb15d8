// Shuffle: the workload the paper's introduction motivates — a MapReduce
// shuffle stage, where every mapper sends a partition to every reducer.
//
// The example builds an m×r shuffle Coflow, schedules it with Sunflow and
// with the strongest preemptive baseline, Solstice, and sweeps the circuit
// reconfiguration delay δ to show where circuit switching overhead bites
// (Figures 3 and 6 of the paper, in miniature).
package main

import (
	"fmt"
	"log"
	"math/rand"

	"sunflow"
	"sunflow/internal/fabric"
	"sunflow/internal/solstice"
)

const (
	mappers  = 8
	reducers = 8
	linkBps  = 1e9
)

func main() {
	c := shuffleCoflow(1, mappers, reducers, 64e6, 7)
	ports := mappers + reducers

	fmt.Printf("shuffle: %d mappers x %d reducers, %.0f MB total\n\n",
		mappers, reducers, c.TotalBytes()/1e6)
	fmt.Printf("%-8s  %-22s  %-22s\n", "delta", "Sunflow CCT (xTcL)", "Solstice CCT (xTcL)")

	for _, delta := range []float64{0.1, 0.01, 0.001, 0.0001} {
		tcl := sunflow.CircuitLowerBound(c, linkBps, delta)

		d, err := sunflow.Nanos(delta)
		if err != nil {
			log.Fatal(err)
		}
		sun, err := sunflow.ScheduleOne(c, ports, sunflow.Options{LinkBps: linkBps, Delta: d})
		if err != nil {
			log.Fatal(err)
		}
		sol, _, err := solstice.Run(c, ports, solstice.Options{LinkBps: linkBps, Delta: delta}, fabric.NotAllStop)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s  %6.3fs (%4.2fx, %3d sw)  %6.3fs (%4.2fx, %3d sw)\n",
			fmtDelta(delta),
			sun.CCT(0), sun.CCT(0)/tcl, sun.SwitchingCount(),
			sol.Finish, sol.Finish/tcl, sol.SwitchCount)
	}

	fmt.Println("\nSunflow establishes each circuit exactly once; Solstice re-establishes")
	fmt.Println("circuits across its assignment sequence and pays δ each time.")
}

// shuffleCoflow builds an m×r shuffle with log-normal-ish partition skew.
func shuffleCoflow(id, m, r int, avgBytes float64, seed int64) *sunflow.Coflow {
	rng := rand.New(rand.NewSource(seed))
	var flows []sunflow.Flow
	for i := 0; i < m; i++ {
		for j := 0; j < r; j++ {
			skew := 0.25 + 1.5*rng.Float64()
			flows = append(flows, sunflow.Flow{Src: i, Dst: m + j, Bytes: avgBytes * skew})
		}
	}
	return sunflow.NewCoflow(id, 0, flows)
}

func fmtDelta(d float64) string {
	if d >= 1e-3 {
		return fmt.Sprintf("%.0f ms", d*1e3)
	}
	return fmt.Sprintf("%.0f us", d*1e6)
}
