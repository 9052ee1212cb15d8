// Command sunflow-scale runs a large Coflow workload end-to-end through the
// bounded-memory simulation path and reports the scale health numbers the
// CI scale-smoke job gates on: the order-independent archive digest (for
// determinism checks across runs), peak resident memory (for the max-RSS
// budget), and coflows-per-second throughput.
//
// The workload streams either from a benchmark-format trace file (-in,
// parsed one record at a time by trace.Scanner) or straight from the seeded
// generator (-coflows/-dist); neither path ever materializes the whole
// trace, so resident memory tracks peak concurrent Coflows.
//
// Usage:
//
//	sunflow-scale -in trace.txt [-link 1e9] [-delta 0.01] [-max-rss-mb 512] [-digest-out digest.txt]
//	sunflow-scale -coflows 100000 [-ports 150] [-dist facebook] [-seed 1] [-horizon 0]
//
// SUNFLOW_FULL_REPLAN=1 in the environment forces the full-rebuild
// scheduling path (no incremental schedule reuse); the archive digest must be
// byte-identical either way, which the scale-smoke CI job gates on.
//
// With -max-rss-mb the command exits non-zero when VmHWM exceeds the budget.
// A zero -horizon scales the generator's arrival span so arrival density
// matches the paper's 526-Coflow/hour trace.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sunflow/internal/procstat"
	"sunflow/internal/sim"
	"sunflow/internal/trace"
)

func main() {
	in := flag.String("in", "", "stream this benchmark-format trace file (empty: use the generator)")
	coflows := flag.Int("coflows", 100_000, "generator: number of Coflows")
	ports := flag.Int("ports", 150, "generator: fabric port count")
	dist := flag.String("dist", trace.DistFacebook, "generator: workload distribution: "+strings.Join(trace.KnownDists, ", "))
	seed := flag.Int64("seed", 1, "generator seed")
	horizon := flag.Float64("horizon", 0, "generator: arrival span in seconds (0: scale the paper's density to -coflows)")
	link := flag.Float64("link", 1e9, "link bandwidth in bits/s")
	delta := flag.Float64("delta", 0.01, "reconfiguration delay in seconds")
	maxRSS := flag.Float64("max-rss-mb", 0, "fail when peak RSS exceeds this many MB (0: no budget)")
	digestOut := flag.String("digest-out", "", "also write the digest line to this file")
	flag.Parse()

	var (
		src      sim.Source
		numPorts int
		total    int
	)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		sc, err := trace.NewScanner(f, trace.AutoBase)
		if err != nil {
			fatal(err)
		}
		src = sc.Coflows()
		numPorts, total = sc.Ports(), sc.NumJobs()
	} else {
		if !trace.ValidDist(*dist) {
			fatal(fmt.Errorf("unknown distribution %q (want one of %s)", *dist, strings.Join(trace.KnownDists, ", ")))
		}
		h := *horizon
		if h == 0 {
			h = float64(*coflows) / 526 * 3600
		}
		g := trace.Generator{Ports: *ports, Coflows: *coflows, HorizonSec: h, Seed: *seed, Dist: *dist}
		st := g.Stream()
		src = st.Coflows()
		numPorts, total = st.Ports(), st.Len()
	}

	var dig sim.ArchiveDigest
	start := time.Now()
	res, err := sim.RunCircuitSource(src, sim.CircuitOptions{
		Ports:     numPorts,
		LinkBps:   *link,
		Delta:     *delta,
		OnArchive: dig.Add,
	})
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	rss := procstat.PeakRSSMB()
	digest := fmt.Sprintf("digest %s coflows %d events %d", dig.Sum(), dig.Count(), res.Events)
	fmt.Println(digest)
	fmt.Printf("ports %d coflows %d/%d elapsed %.1fs throughput %.0f coflows/s rss %.1f MB\n",
		numPorts, dig.Count(), total, elapsed.Seconds(), float64(dig.Count())/elapsed.Seconds(), rss)
	if res.Partial.Degraded() {
		fatal(fmt.Errorf("workload stranded %d flows on a fault-free fabric", len(res.Partial.Stranded)))
	}
	if dig.Count() != total {
		fatal(fmt.Errorf("archived %d of %d coflows", dig.Count(), total))
	}
	if *digestOut != "" {
		if err := os.WriteFile(*digestOut, []byte(digest+"\n"), 0o644); err != nil {
			fatal(err)
		}
	}
	if *maxRSS > 0 && rss > *maxRSS {
		fatal(fmt.Errorf("peak RSS %.1f MB exceeds the %.0f MB budget", rss, *maxRSS))
	}
	if rss == 0 {
		fmt.Println("sunflow-scale: note: no procfs; RSS budget not enforced")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sunflow-scale:", err)
	os.Exit(1)
}
