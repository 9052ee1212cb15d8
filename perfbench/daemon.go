package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"sunflow/internal/daemon"
	"sunflow/internal/obs"
	"sunflow/internal/workload"
)

// checkpointEvery is the daemon's default checkpoint period in accepted
// events, set explicitly so the recovered WAL tail length is known.
const checkpointEvery = 1024

// readWindow is how far back the closed-loop client reads: each registration
// is followed by a GET of one of the previous readWindow Coflows, a mix of
// live and finished ones at dense48's load.
const readWindow = 256

// daemonInput is the pre-encoded request stream of the daemon phase.
type daemonInput struct {
	prefix int      // registrations of the warm-up that set-up recovers
	bodies [][]byte // POST /v1/coflows body per Coflow id
	reads  []string // GET path issued after each registration
	last   float64  // last arrival
	exp    *expected
}

// daemonEngine is the fabric every daemon data directory is written under.
var daemonEngine = daemon.EngineConfig{Ports: 48, LinkBps: linkBps, Delta: delta}

// daemonPhase measures the sunflowd layer for dense48's traced run. It
// drives the daemon's /v1 handlers in-process with one closed-loop client on
// a dense48-shaped stream: each POST /v1/coflows is followed by a GET
// /v1/coflows/{id} of an earlier Coflow. Set-up is daemon.Start recovering a
// data directory (snapshot plus WAL tail) left by a warm-up prefix of the
// stream. Every registration fsyncs the WAL on the disk that holds the
// working directory, so the phase yields per-layer metrics only: its timing
// follows that disk, not the program.
func daemonPhase(o options, log *spanLog) (passResult, error) {
	in, err := newDaemonInput(o.seed, o.size.daemonPrefix, o.size.daemonCoflows, o.injectBad)
	if err != nil {
		return passResult{}, err
	}
	dir := filepath.Join(o.work, "daemon")
	if err := warmUp(in, filepath.Join(o.work, "daemon-warmup"), dir); err != nil {
		return passResult{}, err
	}
	defer os.RemoveAll(dir)
	p, err := daemonPass(in, dir, log)
	p.traced, p.layerOnly = true, true
	return p, err
}

func newDaemonInput(seed int64, prefix, n int, inject bool) (*daemonInput, error) {
	raw, err := dense48Input(seed, prefix+n)
	if err != nil {
		return nil, err
	}
	in := &daemonInput{prefix: prefix, exp: &expected{}}
	_, raw, err = workload.ScaleToIdleness(raw, linkBps, denseIdleness)
	if err != nil {
		return nil, fmt.Errorf("daemon input scale: %w", err)
	}
	type flow struct {
		Src   int     `json:"src"`
		Dst   int     `json:"dst"`
		Bytes float64 `json:"bytes"`
	}
	type register struct {
		Coflow int     `json:"coflow"`
		At     float64 `json:"at"`
		Flows  []flow  `json:"flows"`
	}
	rng := rand.New(rand.NewSource(seed))
	for i, c := range raw {
		if err := in.exp.add(c); err != nil {
			return nil, err
		}
		r := register{Coflow: c.ID, At: c.Arrival}
		for _, f := range c.Flows {
			r.Flows = append(r.Flows, flow{f.Src, f.Dst, f.Bytes})
		}
		if inject && i == prefix+n/2 {
			r.Flows[0].Dst = daemonEngine.Ports
		}
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, b)
		in.reads = append(in.reads, "/v1/coflows/"+strconv.Itoa(max(0, i-1-rng.Intn(min(max(i, 1), readWindow)))))
		in.last = c.Arrival
	}
	return in, nil
}

// daemonConfig is the service configuration of every daemon. The
// wall-clock checkpoint timer is off so checkpoints fall at fixed event
// counts and the recovered WAL tail has a known length.
func daemonConfig(dir string, m *obs.DaemonMetrics) daemon.Config {
	return daemon.Config{
		Engine:             daemonEngine,
		DataDir:            dir,
		CheckpointEvery:    checkpointEvery,
		CheckpointInterval: -1,
		Metrics:            m,
	}
}

// mux mounts the daemon's /v1 handlers the way a server would.
func mux(d *daemon.Daemon) *http.ServeMux {
	m := http.NewServeMux()
	for pattern, h := range d.Routes() {
		m.Handle(pattern, h)
	}
	return m
}

// serve runs one in-process request, with no socket, through h.
func serve(h http.Handler, method, path string, body []byte) (int, []byte) {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, r)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// warmUp registers the stream's prefix on a fresh data directory and, while
// the daemon is idle, copies the directory, snapshot and WAL tail, to dst.
// Shutting the daemon down would checkpoint away the tail.
func warmUp(in *daemonInput, dir, dst string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	d, err := daemon.Start(daemonConfig(dir, nil))
	if err != nil {
		return fmt.Errorf("daemon warm-up: %w", err)
	}
	routes := mux(d)
	for i := 0; i < in.prefix; i++ {
		if code, body := serve(routes, http.MethodPost, "/v1/coflows", in.bodies[i]); code != http.StatusOK {
			d.Shutdown(context.Background())
			return fmt.Errorf("daemon warm-up: register %d: %d %s", i, code, body)
		}
	}
	// A status read is served by the apply loop after everything before it,
	// so once it returns no checkpoint is in progress.
	if code, body := serve(routes, http.MethodGet, "/v1/status", nil); code != http.StatusOK {
		d.Shutdown(context.Background())
		return fmt.Errorf("daemon warm-up: status: %d %s", code, body)
	}
	err = copyDir(dir, dst)
	if serr := d.Shutdown(context.Background()); err == nil {
		err = serr
	}
	os.RemoveAll(dir)
	return err
}

// copyDir replaces dst with a copy of the regular files in src.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// daemonPass recovers dir, runs the rest of the stream through the /v1
// handlers, drains the engine and checks the result: every request answered
// 200, every registered Coflow done after the drain, each CCT at least its
// TpL. It reads the daemon's own obs.DaemonMetrics.
func daemonPass(in *daemonInput, dir string, l *spanLog) (passResult, error) {
	var p passResult
	dm := obs.NewDaemonMetrics(obs.NewRegistry())
	root := l.begin("daemon", -1)
	defer l.end(root)

	runtime.GC()
	sp := l.begin("daemon.start", root)
	t0 := time.Now()
	d, err := daemon.Start(daemonConfig(dir, dm))
	p.setup = time.Since(t0).Seconds()
	l.end(sp)
	if err != nil {
		return p, fmt.Errorf("daemon recover: %w", err)
	}
	stopped := false
	defer func() {
		if !stopped {
			d.Shutdown(context.Background())
		}
	}()
	if want := in.prefix % checkpointEvery; d.Recovered() != want {
		p.violation("recovered %d WAL records, want %d", d.Recovered(), want)
	}

	routes := mux(d)
	n := len(in.bodies)
	p.admit = make([]float64, 0, n-in.prefix)
	reads := make([]float64, 0, n-in.prefix)
	runtime.GC()
	badRegisters := 0
	run := l.begin("daemon.run", root)
	t0 = time.Now()
	for i := in.prefix; i < n; i++ {
		p.attempted += 2
		s := clock()
		code, body := serve(routes, http.MethodPost, "/v1/coflows", in.bodies[i])
		e := clock()
		l.add("v1.register", run, s, e)
		p.admit = append(p.admit, float64(e-s)/1e3)
		if code != http.StatusOK {
			p.failed++
			badRegisters++
			p.violation("register %d: %d %s", i, code, bytes.TrimSpace(body))
		}
		s = clock()
		code, body = serve(routes, http.MethodGet, in.reads[i], nil)
		e = clock()
		l.add("v1.read", run, s, e)
		reads = append(reads, float64(e-s)/1e3)
		if code != http.StatusOK {
			p.failed++
			p.violation("read %s: %d %s", in.reads[i], code, bytes.TrimSpace(body))
		}
	}
	p.wall = time.Since(t0).Seconds()
	l.end(run)
	p.ops = n - in.prefix

	// Drain: advance past every planned completion, then read the status.
	sp = l.begin("daemon.drain", root)
	drain, _ := json.Marshal(daemon.Event{Kind: daemon.KindAdvance, At: in.last + 1e7})
	if code, body := serve(routes, http.MethodPost, "/v1/events", drain); code != http.StatusOK {
		p.violation("drain: %d %s", code, bytes.TrimSpace(body))
	}
	code, body := serve(routes, http.MethodGet, "/v1/status", nil)
	l.end(sp)
	var st daemon.Status
	if code != http.StatusOK {
		p.violation("status: %d %s", code, bytes.TrimSpace(body))
	} else if err := json.Unmarshal(body, &st); err != nil {
		p.violation("status body: %v", err)
	}
	// A rejected registration never becomes a Coflow; the rest must be done.
	registered := n - badRegisters
	if st.Done != registered || st.Live != 0 {
		p.violation("after the drain %d done and %d live, want %d done", st.Done, st.Live, registered)
	}
	p.digest = st.Digest

	stopped = true
	if err := d.Shutdown(context.Background()); err != nil {
		return p, fmt.Errorf("daemon shutdown: %w", err)
	}
	done := d.Engine().Completions()
	for id, c := range done {
		if c.CCT < in.exp.tpl[id]*(1-1e-9) {
			p.violation("coflow %d CCT %v below its TpL %v", id, c.CCT, in.exp.tpl[id])
		}
	}
	snap, err := os.Stat(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		return p, fmt.Errorf("daemon snapshot: %w", err)
	}
	appends := float64(dm.WALAppends.Load())
	p.layer = map[string]float64{
		"daemon.register_p50_us":     percentile(p.admit, 0.50),
		"daemon.register_p99_us":     percentile(p.admit, 0.99),
		"daemon.read_p50_us":         percentile(reads, 0.50),
		"daemon.read_p99_us":         percentile(reads, 0.99),
		"daemon.replans":             float64(dm.Replans.Load()),
		"daemon.replan_s":            dm.ReplanSeconds.Sum(),
		"daemon.replan_p99_us":       dm.ReplanSeconds.Quantile(0.99) * 1e6,
		"daemon.wal_appends":         appends,
		"daemon.wal_bytes_per_event": float64(dm.WALBytes.Load()) / max(appends, 1),
		"daemon.snapshots":           float64(dm.Snapshots.Load()),
		"daemon.snapshot_bytes":      float64(snap.Size()),
		"daemon.recovered_events":    float64(dm.RecoveredEvents.Load()),
		"daemon.recover_s":           p.setup,
		"daemon.done_retained":       float64(st.Done),
		"daemon.live_peak":           float64(dm.CoflowsLive.High()),
		"daemon.rejected":            float64(dm.EventsRejected.Load()),
		"daemon.shed":                float64(dm.EventsShed.Load()),
	}
	p.counts = map[string]int{
		"daemon.register_p50_us": len(p.admit), "daemon.register_p99_us": len(p.admit),
		"daemon.read_p50_us": len(reads), "daemon.read_p99_us": len(reads),
	}
	return p, nil
}
