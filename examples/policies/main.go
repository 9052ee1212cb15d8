// Policies: the inter-Coflow scheduling framework of §4.2 in action.
//
// Three scenarios on one fabric:
//
//  1. Privileged vs regular users — a PriorityClasses policy lets the
//     privileged Coflow finish as if it were alone.
//  2. Combining same-priority Coflows — each member finishes when the merged
//     Coflow does, trading average CCT for equal chances.
//  3. Starvation avoidance — a permanently deprioritized Coflow still makes
//     progress through the recurring (T, τ) fair windows.
package main

import (
	"fmt"
	"log"

	"sunflow"
	"sunflow/internal/coflow"
)

const (
	ports   = 8
	linkBps = 1e9
	delta   = 0.01       // seconds
	deltaNs = 10_000_000 // δ in ticks (ns), for sunflow.Options
)

func main() {
	scenarioPriorities()
	scenarioCombining()
	scenarioStarvation()
}

func scenarioPriorities() {
	fmt.Println("— privileged vs regular users —")
	privileged := sunflow.NewCoflow(1, 0, []sunflow.Flow{
		{Src: 0, Dst: 4, Bytes: 20e6},
		{Src: 1, Dst: 5, Bytes: 30e6},
	})
	regular := sunflow.NewCoflow(2, 0, []sunflow.Flow{
		{Src: 0, Dst: 4, Bytes: 200e6},
		{Src: 1, Dst: 4, Bytes: 100e6},
	})

	policy := sunflow.PriorityClasses{Class: map[int]int{1: 0, 2: 1}}
	scheds, ordered, err := sunflow.ScheduleAll(
		[]*sunflow.Coflow{regular, privileged}, ports,
		sunflow.Options{LinkBps: linkBps, Delta: deltaNs}, policy)
	if err != nil {
		log.Fatal(err)
	}
	for i, s := range scheds {
		fmt.Printf("  coflow %d (class %d): CCT %.3fs\n", ordered[i].ID, i, s.CCT(0))
	}

	solo, err := sunflow.ScheduleOne(privileged, ports, sunflow.Options{LinkBps: linkBps, Delta: deltaNs})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  privileged coflow alone:  CCT %.3fs (never blocked by the regular one)\n\n", solo.CCT(0))
}

func scenarioCombining() {
	fmt.Println("— combining same-priority Coflows —")
	a := sunflow.NewCoflow(10, 0, []sunflow.Flow{{Src: 0, Dst: 4, Bytes: 10e6}})
	b := sunflow.NewCoflow(11, 0, []sunflow.Flow{{Src: 0, Dst: 4, Bytes: 40e6}})

	opts := sunflow.Options{LinkBps: linkBps, Delta: deltaNs}
	scheds, ordered, err := sunflow.ScheduleAll([]*sunflow.Coflow{a, b}, ports, opts, sunflow.FIFO{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("  served individually (FIFO):")
	for i, s := range scheds {
		fmt.Printf("    coflow %d: CCT %.3fs\n", ordered[i].ID, s.CCT(0))
	}

	merged, err := coflow.Combine(12, []*sunflow.Coflow{a, b})
	if err != nil {
		log.Fatal(err)
	}
	ms, err := sunflow.ScheduleOne(merged, ports, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  combined into one Coflow: both finish at %.3fs\n", ms.CCT(0))
	fmt.Println("  (equal chance to be serviced, at the cost of average CCT — §4.2)")
	fmt.Println()
}

func scenarioStarvation() {
	fmt.Println("— starvation avoidance with (T, τ) fair windows —")
	hog := sunflow.NewCoflow(1, 0, []sunflow.Flow{{Src: 0, Dst: 0, Bytes: 2e9}}) // 16 s transfer
	victim := sunflow.NewCoflow(2, 0, []sunflow.Flow{{Src: 0, Dst: 0, Bytes: 1e6}})
	starver := sunflow.PriorityClasses{Class: map[int]int{1: 0, 2: 1}}

	base := sunflow.CircuitOptions{Ports: ports, LinkBps: linkBps, Delta: delta, Policy: starver}
	without, err := sunflow.SimulateCircuit([]*sunflow.Coflow{hog, victim}, base)
	if err != nil {
		log.Fatal(err)
	}

	fair := base
	fair.Fair = &sunflow.FairWindows{N: ports, T: 1e9, Tau: 5e7} // T = 1 s, τ = 50 ms
	with, err := sunflow.SimulateCircuit([]*sunflow.Coflow{hog, victim}, fair)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("  deprioritized 1 MB Coflow behind a 16 s hog on the same circuit:\n")
	fmt.Printf("    without fair windows: CCT %6.2fs (waits for the hog)\n", without.CCT[2])
	fmt.Printf("    with fair windows:    CCT %6.2fs (served inside a τ window)\n", with.CCT[2])
	fmt.Printf("  every Coflow receives non-zero service within N(T+τ) = %.2fs\n",
		float64(ports)*(1.0+0.05))
}
