// Command sunflow schedules Coflow workloads on an optical circuit switch.
//
// It reads a workload in the coflow-benchmark format (file or stdin) and
// either prints the circuit schedule of a single Coflow (-coflow) as a
// Gantt-style reservation listing, or replays the whole trace through the
// online inter-Coflow simulator and reports per-Coflow completion times.
//
// Usage:
//
//	sunflow [-trace file] [-coflow id] [-b gbps] [-delta sec] [-policy scf|fifo] [-scheduler sunflow|solstice] [-v]
//	        [-metrics] [-traceout file] [-http addr] [-pprof addr]
//
// -metrics prints the run's observability summary (circuit setups, δ time
// paid, duty cycle, scheduler-pass wall time) and -traceout writes the
// structured simulation event stream as JSON Lines (inspect it with
// sunflow-analyze); -http serves live Prometheus /metrics, /healthz, expvar
// and net/http/pprof; -pprof serves bare net/http/pprof on the given
// address.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"sort"

	"sunflow/internal/coflow"
	"sunflow/internal/core"
	"sunflow/internal/fabric"
	"sunflow/internal/obs"
	"sunflow/internal/obs/obshttp"
	"sunflow/internal/sim"
	"sunflow/internal/solstice"
	"sunflow/internal/trace"
)

func main() {
	traceFile := flag.String("trace", "-", "coflow-benchmark trace file (- for stdin)")
	coflowID := flag.Int("coflow", -1, "schedule only this Coflow (intra mode); -1 replays the whole trace")
	gbits := flag.Float64("b", 1, "link bandwidth in Gbit/s")
	delta := flag.Float64("delta", 0.01, "circuit reconfiguration delay in seconds")
	policyName := flag.String("policy", "scf", "inter-Coflow policy: scf (shortest first) or fifo")
	scheduler := flag.String("scheduler", "sunflow", "intra scheduler for -coflow mode: sunflow or solstice")
	verbose := flag.Bool("v", false, "print every reservation / completion")
	gantt := flag.Int("gantt", 0, "with -coflow: render the schedule as a Gantt chart this many columns wide")
	metrics := flag.Bool("metrics", false, "print the observability summary after the run")
	traceOut := flag.String("traceout", "", "write the JSONL simulation event trace to this file")
	httpAddr := flag.String("http", "", "serve live /metrics, /healthz, expvar and pprof on this address (e.g. :8080)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()

	if *pprofAddr != "" {
		// Bind synchronously so an unusable address fails the run up front
		// instead of erroring later from a goroutine (matching cmd/repro).
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fatal(fmt.Errorf("pprof: %w", err))
		}
		go func() {
			if err := http.Serve(ln, nil); err != nil {
				fmt.Fprintf(os.Stderr, "sunflow: pprof: %v\n", err)
			}
		}()
	}

	var o *obs.Observer
	var sink *obs.JSONLSink
	if *metrics || *traceOut != "" || *httpAddr != "" {
		// The Sink interface must stay nil when no trace file is wanted; a
		// typed-nil *JSONLSink would read as trace-enabled.
		var s obs.Sink
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fatal(err)
			}
			sink = obs.NewJSONLSink(f)
			defer sink.Close()
			s = sink
		}
		o = obs.NewWith(obs.NewRegistry(), s)
	}
	if *httpAddr != "" {
		srv, err := obshttp.Serve(*httpAddr, o.Registry(), obshttp.Options{})
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Printf("[metrics listening on http://%s/metrics]\n", srv.Addr())
	}

	tr, err := readTrace(*traceFile)
	if err != nil {
		fatal(err)
	}
	linkBps := *gbits * 1e9

	if *coflowID >= 0 {
		err := intraMode(tr, *coflowID, linkBps, *delta, *scheduler, *verbose, *gantt, o)
		if err == nil {
			err = finishObs(o, sink, *metrics)
		}
		if err != nil {
			fatal(err)
		}
		return
	}

	var policy core.Policy
	switch *policyName {
	case "scf":
		policy = core.ShortestFirst{LinkBps: linkBps}
	case "fifo":
		policy = core.FIFO{}
	default:
		fatal(fmt.Errorf("unknown policy %q", *policyName))
	}

	res, err := sim.RunCircuit(tr.Coflows, sim.CircuitOptions{
		Ports:   tr.Ports,
		LinkBps: linkBps,
		Delta:   *delta,
		Policy:  policy,
		Obs:     o,
	})
	if err != nil {
		fatal(err)
	}

	ids := make([]int, 0, len(res.CCT))
	for id := range res.CCT {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var sum float64
	for _, id := range ids {
		sum += res.CCT[id]
		if *verbose {
			fmt.Printf("coflow %-6d CCT %10.3fs  switches %d\n", id, res.CCT[id], res.SwitchCount[id])
		}
	}
	fmt.Printf("coflows %d  policy %s  B %.0f Gbps  delta %gs\n", len(ids), policy.Name(), *gbits, *delta)
	fmt.Printf("average CCT %.3fs\n", sum/float64(len(ids)))
	if err := finishObs(o, sink, *metrics); err != nil {
		fatal(err)
	}
}

// finishObs prints the metrics table and flushes the trace sink.
func finishObs(o *obs.Observer, sink *obs.JSONLSink, metrics bool) error {
	if metrics {
		fmt.Print(obs.FormatSummaries(o))
	}
	if sink != nil {
		return sink.Flush()
	}
	return nil
}

// intraMode schedules one Coflow alone and prints its reservations.
func intraMode(tr *trace.Trace, id int, linkBps, delta float64, scheduler string, verbose bool, gantt int, o *obs.Observer) error {
	var target *coflow.Coflow
	for _, c := range tr.Coflows {
		if c.ID == id {
			target = c
			break
		}
	}
	if target == nil {
		return fmt.Errorf("coflow %d not in trace", id)
	}
	tpl := target.PacketLowerBound(linkBps)
	tcl := target.CircuitLowerBound(linkBps, delta)
	fmt.Printf("%v\n", target)
	fmt.Printf("TpL %.3fs  TcL %.3fs\n", tpl, tcl)

	switch scheduler {
	case "sunflow":
		d, err := core.Nanos(delta)
		if err != nil {
			return err
		}
		sched, err := core.IntraCoflow(core.NewPRT(tr.Ports), target, core.Options{LinkBps: linkBps, Delta: d, Obs: o})
		if err != nil {
			return err
		}
		if verbose {
			for _, r := range sched.Reservations {
				fmt.Printf("  circuit [in.%d -> out.%d]  %.3fs .. %.3fs  (%.1f MB)\n",
					r.In, r.Out, core.Seconds(r.Start), core.Seconds(r.End), float64(r.Bytes)/1e6)
			}
		}
		fmt.Printf("sunflow: CCT %.3fs (%.2fx TcL)  switches %d\n",
			sched.CCT(0), sched.CCT(0)/tcl, sched.SwitchingCount())
		if gantt > 0 {
			fmt.Print(core.Gantt(gantt, sched))
		}
	case "solstice":
		res, st, err := solstice.Run(target, tr.Ports, solstice.Options{LinkBps: linkBps, Delta: delta, Obs: o}, fabric.NotAllStop)
		if err != nil {
			return err
		}
		fmt.Printf("solstice: CCT %.3fs (%.2fx TcL)  switches %d  assignments %d\n",
			res.Finish, res.Finish/tcl, res.SwitchCount, st.Assignments)
	default:
		return fmt.Errorf("unknown scheduler %q", scheduler)
	}
	return nil
}

func readTrace(path string) (*trace.Trace, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return trace.Parse(r)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sunflow:", err)
	os.Exit(1)
}
