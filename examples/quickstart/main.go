// Quickstart: build a small Coflow, schedule it with Sunflow on a 4-port
// optical circuit switch, and compare its completion time against the
// theoretical lower bounds of the paper.
package main

import (
	"fmt"
	"log"

	"sunflow"
)

func main() {
	// A 2x2 shuffle: two senders (ports 0 and 1) each transfer to two
	// receivers (ports 2 and 3). Sizes are in bytes.
	c := sunflow.NewCoflow(1, 0, []sunflow.Flow{
		{Src: 0, Dst: 2, Bytes: 64e6},
		{Src: 0, Dst: 3, Bytes: 32e6},
		{Src: 1, Dst: 2, Bytes: 16e6},
		{Src: 1, Dst: 3, Bytes: 128e6},
	})

	opts := sunflow.Options{
		LinkBps: 1e9, // 1 Gbps links
		Delta:   1e7, // 10 ms circuit reconfiguration (3D-MEMS), in ns
	}

	sched, err := sunflow.ScheduleOne(c, 4, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Sunflow schedule (non-preemptive circuit reservations):")
	for _, r := range sched.Reservations {
		fmt.Printf("  circuit in.%d -> out.%d  held %7.3fs .. %7.3fs  carries %5.1f MB\n",
			r.In, r.Out, sunflow.Seconds(r.Start), sunflow.Seconds(r.End), float64(r.Bytes)/1e6)
	}

	tpl := sunflow.PacketLowerBound(c, opts.LinkBps)
	tcl := sunflow.CircuitLowerBound(c, opts.LinkBps, sunflow.Seconds(opts.Delta))
	fmt.Printf("\nCCT:                      %.3f s\n", sched.CCT(0))
	fmt.Printf("circuit lower bound TcL:  %.3f s  (ratio %.2f — Lemma 1 guarantees < 2)\n", tcl, sched.CCT(0)/tcl)
	fmt.Printf("packet  lower bound TpL:  %.3f s  (ratio %.2f)\n", tpl, sched.CCT(0)/tpl)
	fmt.Printf("circuit establishments:   %d (minimum possible: %d)\n",
		sched.SwitchingCount(), c.NumFlows())
}
