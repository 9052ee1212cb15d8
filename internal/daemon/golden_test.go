package daemon

import (
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"sunflow/internal/trace"
)

// goldenConfig is the fabric every daemon golden runs on.
var goldenConfig = EngineConfig{Ports: 16, LinkBps: 1e9, Delta: 0.01}

// goldenEvents is the scripted stream behind the daemon goldens: registrations
// in arrival order with priorities, advances that overshoot later arrivals (so
// those register late, behind the engine clock), late faults and late forced
// completions, transient outages, and two permanent port deaths.
func goldenEvents() []Event {
	tr := trace.Generator{Ports: goldenConfig.Ports, Coflows: 60, HorizonSec: 24, MaxWidth: 5, Seed: 21}.Trace()
	rng := rand.New(rand.NewSource(21))
	var evs []Event
	for i, c := range tr.Coflows {
		flows := make([]FlowSpec, 0, len(c.Flows))
		for _, f := range c.Flows {
			flows = append(flows, FlowSpec{Src: f.Src, Dst: f.Dst, Bytes: f.Bytes})
		}
		evs = append(evs, Event{Kind: KindRegister, At: c.Arrival, Coflow: c.ID, Priority: rng.Intn(3), Flows: flows})
		switch rng.Intn(6) {
		case 0:
			// Overshoot: the next registrations arrive behind the clock.
			evs = append(evs, Event{Kind: KindAdvance, At: c.Arrival + 0.5 + rng.Float64()})
		case 1:
			evs = append(evs, Event{Kind: KindFault, At: c.Arrival + 0.05, Port: rng.Intn(tr.Ports), Duration: 0.2 + rng.Float64()})
		case 2:
			if i > 0 {
				// Late forced completion: At precedes the registration just
				// applied, so it lands at the engine clock.
				evs = append(evs, Event{Kind: KindComplete, At: c.Arrival - 0.1, Coflow: tr.Coflows[rng.Intn(i)].ID})
			}
		case 3:
			// Late transient fault.
			evs = append(evs, Event{Kind: KindFault, At: c.Arrival - 0.2, Port: rng.Intn(tr.Ports), Duration: 0.4})
		}
		switch i {
		case 12:
			evs = append(evs, Event{Kind: KindFault, At: c.Arrival, Port: 5})
		case 40:
			evs = append(evs, Event{Kind: KindFault, At: c.Arrival + 0.01, Port: 11, Duration: -1})
		}
	}
	return append(evs, Event{Kind: KindAdvance, At: 1e4})
}

// goldenDigest is the engine digest after the whole goldenEvents stream.
const goldenDigest = "ec95b0d25554fcbc5f80929071eea01d4f92f4ae7cb47b84de66ebac4ca6bbcf"

// TestGoldenEngineDigest pins the digest chain over goldenEvents. It holds
// with and without SUNFLOW_FULL_REPLAN=1.
func TestGoldenEngineDigest(t *testing.T) {
	e, err := NewEngine(goldenConfig, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range goldenEvents() {
		// Sequence numbers fold into the digest; number the events as a
		// Store would.
		ev.Seq = uint64(i + 1)
		_, _ = e.Apply(ev)
	}
	if e.LiveCount() != 0 {
		t.Fatalf("%d coflows still live after the drain", e.LiveCount())
	}
	if got := e.Digest(); got != goldenDigest {
		t.Errorf("digest %s, want %s", got, goldenDigest)
	}
}

// goldenDataDir holds a version-2 snapshot taken after goldenEvents()[:60]
// plus a WAL tail with events 61..90 (sequence numbers 61 to 90), written by
// an earlier build of Store. It guards the on-disk format and the recovery
// path across refactors of the engine. That build kept fractional bytes and
// float-second instants: its snapshot carries a base field and fractional rem
// and plan bytes, which load ignored and rounded, and every instant loads
// through core.Nanos. Its digest chain at sequence 60 is the old build's, so
// the recovered chain ends at goldenDataDirFinal rather than goldenDigest.
const (
	goldenDataDir       = "testdata/golden-v2"
	goldenDataDirSeq    = 90
	goldenDataDirDigest = "de5cb7d48c5552e367e635ca96ec10e0cfdf674ed2b73699ee05657dca4a2465"
	goldenDataDirFinal  = "a1182e8cad9b2d72696096f27073539176fa6909356c2659547205e0fc1520e2"
)

// TestGoldenDataDirRecovers opens a copy of the checked-in data directory and
// requires the recovered engine to reach the pinned digest, then to finish
// the stream at the pinned final digest.
func TestGoldenDataDirRecovers(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{snapshotName, walName} {
		copyFile(t, filepath.Join(goldenDataDir, name), filepath.Join(dir, name))
	}
	s, err := Open(dir, goldenConfig, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.LastSeq() != goldenDataDirSeq {
		t.Fatalf("recovered seq %d, want %d", s.LastSeq(), goldenDataDirSeq)
	}
	if got := s.Engine().Digest(); got != goldenDataDirDigest {
		t.Fatalf("recovered digest %s, want %s", got, goldenDataDirDigest)
	}
	for _, ev := range goldenEvents()[goldenDataDirSeq:] {
		_, _, _ = s.Accept(ev)
	}
	if got := s.Engine().Digest(); got != goldenDataDirFinal {
		t.Errorf("digest after finishing the stream %s, want %s", got, goldenDataDirFinal)
	}
}

func copyFile(t *testing.T, from, to string) {
	t.Helper()
	src, err := os.Open(from)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := os.Create(to)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(dst, src); err != nil {
		t.Fatal(err)
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
}
