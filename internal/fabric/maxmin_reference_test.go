package fabric

// MaxMinFairReference allocates max-min fair rates with textbook progressive
// filling: at each step the most contended port's capacity is split equally
// among its unfrozen flows, those flows are frozen at that rate, and the
// residue propagates. The bottleneck scan is deterministic — input ports in
// ascending order, then output ports, first strict minimum wins — so the
// allocation is a pure function of its arguments. availIn and availOut are
// mutated: the allocated rates are subtracted. The returned slice parallels
// flows.
//
// This is the dense O(rounds × flows) oracle; MaxMinFair replicates its
// selection with a lazy-invalidation heap, and the differential suite holds
// the two bit-identical (DESIGN.md §8).
func MaxMinFairReference(flows []FlowKey, availIn, availOut []float64) []float64 {
	rates := make([]float64, len(flows))
	frozen := make([]bool, len(flows))
	remaining := len(flows)
	inCount := make([]int, len(availIn))
	outCount := make([]int, len(availOut))

	for remaining > 0 {
		// Count unfrozen flows per port.
		for p := range inCount {
			inCount[p] = 0
		}
		for p := range outCount {
			outCount[p] = 0
		}
		for idx, f := range flows {
			if frozen[idx] {
				continue
			}
			inCount[f.Src]++
			outCount[f.Dst]++
		}

		// Find the bottleneck: the port with the smallest equal share.
		// Ascending port order, in-side before out-side, strict < — the
		// deterministic tie-break the fast path's heap ordering mirrors.
		bottleShare := -1.0
		bottleIn, bottlePort := false, -1
		for p, c := range inCount {
			if c == 0 {
				continue
			}
			share := availIn[p] / float64(c)
			if bottleShare < 0 || share < bottleShare {
				bottleShare, bottleIn, bottlePort = share, true, p
			}
		}
		for p, c := range outCount {
			if c == 0 {
				continue
			}
			share := availOut[p] / float64(c)
			if bottleShare < 0 || share < bottleShare {
				bottleShare, bottleIn, bottlePort = share, false, p
			}
		}
		if bottlePort < 0 {
			break
		}
		if bottleShare < 0 {
			bottleShare = 0
		}

		// Freeze every unfrozen flow on the bottleneck port at the share, in
		// ascending flow order (the subtraction order is load-bearing for
		// bit-identity with the fast path).
		for idx, f := range flows {
			if frozen[idx] {
				continue
			}
			onPort := (bottleIn && f.Src == bottlePort) || (!bottleIn && f.Dst == bottlePort)
			if !onPort {
				continue
			}
			rates[idx] = bottleShare
			frozen[idx] = true
			remaining--
			availIn[f.Src] -= bottleShare
			availOut[f.Dst] -= bottleShare
			if availIn[f.Src] < 0 {
				availIn[f.Src] = 0
			}
			if availOut[f.Dst] < 0 {
				availOut[f.Dst] = 0
			}
		}
	}
	return rates
}
