package sim

// StrandedFlow is one flow quarantined because a permanent port failure left
// it unroutable.
type StrandedFlow struct {
	// Coflow, Src and Dst identify the flow.
	Coflow, Src, Dst int
	// Bytes is the demand still unserved when the flow was stranded.
	Bytes float64
	// At is the simulation time the flow was quarantined.
	At float64
}

// PartialResult reports the demand a faulty fabric could not serve. A run
// that strands flows still completes: every routable byte is delivered and
// every fully-routable Coflow gets a CCT, while quarantined Coflows are
// accounted here instead of aborting the simulation.
type PartialResult struct {
	// Stranded lists the quarantined flows in the order they were stranded.
	Stranded []StrandedFlow
	// Finish maps each partially-served Coflow to the instant its routable
	// demand drained. These ids never appear in Result.CCT.
	Finish map[int]float64
	// Bytes is the total demand stranded across all flows.
	Bytes float64
}

// Degraded reports whether any flow was stranded (nil-safe).
func (p *PartialResult) Degraded() bool { return p != nil && len(p.Stranded) > 0 }

// partialOf returns the result's PartialResult, allocating it on first use.
func partialOf(res *Result) *PartialResult {
	if res.Partial == nil {
		res.Partial = &PartialResult{Finish: map[int]float64{}}
	}
	return res.Partial
}
