package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sunflow/internal/core"
	"sunflow/internal/trace"
)

// buildWorkload derives a deterministic event sequence from a seed: trace
// registrations in arrival order with advances, transient faults and forced
// completions interleaved.
func buildWorkload(seed int64) []Event {
	tr := trace.Generator{Ports: 8, Coflows: 10, HorizonSec: 8, MaxWidth: 4, Seed: seed}.Trace()
	rng := rand.New(rand.NewSource(seed * 7919))
	var evs []Event
	for i, c := range tr.Coflows {
		flows := make([]FlowSpec, 0, len(c.Flows))
		for _, f := range c.Flows {
			flows = append(flows, FlowSpec{Src: f.Src, Dst: f.Dst, Bytes: f.Bytes})
		}
		evs = append(evs, Event{Kind: KindRegister, At: c.Arrival, Coflow: c.ID, Priority: rng.Intn(3), Flows: flows})
		switch rng.Intn(5) {
		case 0:
			evs = append(evs, Event{Kind: KindAdvance, At: c.Arrival + rng.Float64()})
		case 1:
			evs = append(evs, Event{Kind: KindFault, At: c.Arrival + 0.1, Port: rng.Intn(tr.Ports), Duration: 0.5 + rng.Float64()})
		case 2:
			if i > 0 {
				evs = append(evs, Event{Kind: KindComplete, At: c.Arrival + 0.05, Coflow: tr.Coflows[rng.Intn(i)].ID})
			}
		}
	}
	evs = append(evs, Event{Kind: KindAdvance, At: 1e4})
	return evs
}

// fingerprint captures everything the recovery property compares.
type fingerprint struct {
	digest string
	seq    uint64
	done   map[int]Completion
	now    float64
}

func fp(s *Store) fingerprint {
	return fingerprint{
		digest: s.Engine().Digest(),
		seq:    s.LastSeq(),
		done:   s.Engine().Completions(),
		now:    s.Engine().Now(),
	}
}

// acceptAll feeds events through the store, checkpointing after event number
// checkpointAt (0 disables). Apply rejections are tolerated — workloads can
// legitimately force-complete an already-done Coflow — as long as both the
// reference and recovered runs see the same ones.
func acceptAll(t *testing.T, s *Store, evs []Event, checkpointAt int) {
	t.Helper()
	for i, ev := range evs {
		if _, _, err := s.Accept(ev); err != nil && !errors.Is(err, ErrUnknownCoflow) {
			t.Fatalf("accept event %d (%+v): %v", i, ev, err)
		}
		if checkpointAt > 0 && i+1 == checkpointAt {
			if err := s.Checkpoint(); err != nil {
				t.Fatalf("checkpoint after event %d: %v", i, err)
			}
		}
	}
}

// TestRecoveryBitIdentical is the headline crash-safety property, run over 50
// seeded workloads: killing the daemon after any prefix of accepted events —
// optionally with a checkpoint somewhere in the prefix and a torn partial
// record at the WAL tail — then restarting and streaming the rest produces an
// Engine bit-identical (schedule digest, completions, sequence, clock) to one
// that never crashed.
func TestRecoveryBitIdentical(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			evs := buildWorkload(seed)
			cfg := EngineConfig{Ports: 8, LinkBps: 1e9, Delta: 0.01}
			rng := rand.New(rand.NewSource(seed))
			kill := 1 + rng.Intn(len(evs)-1)
			checkpointAt := 0
			if rng.Intn(2) == 0 {
				checkpointAt = 1 + rng.Intn(kill)
			}

			ref, err := Open(t.TempDir(), cfg, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			acceptAll(t, ref, evs, 0)

			dir := t.TempDir()
			crash, err := Open(dir, cfg, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			acceptAll(t, crash, evs[:kill], checkpointAt)
			// kill -9: no checkpoint, no graceful close. Appends are fsynced,
			// so dropping the handle loses nothing acknowledged.
			crash.Close()
			if rng.Intn(2) == 0 {
				// Torn tail: the crash interrupted an append mid-record.
				f, err := os.OpenFile(filepath.Join(dir, walName), os.O_APPEND|os.O_WRONLY, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write([]byte("deadbeef {\"kind\":\"regi")); err != nil {
					t.Fatal(err)
				}
				f.Close()
			}

			rec, err := Open(dir, cfg, nil, nil)
			if err != nil {
				t.Fatalf("recovery open: %v", err)
			}
			defer rec.Close()
			if want := kill - int(boolToInt(checkpointAt > 0))*checkpointAt; rec.Recovered() != want {
				t.Fatalf("recovered %d events, want %d (kill=%d checkpoint=%d)", rec.Recovered(), want, kill, checkpointAt)
			}
			acceptAll(t, rec, evs[kill:], 0)

			got, want := fp(rec), fp(ref)
			if got.digest != want.digest {
				t.Errorf("digest diverged after recovery: %s vs %s", got.digest, want.digest)
			}
			if got.seq != want.seq {
				t.Errorf("sequence diverged: %d vs %d", got.seq, want.seq)
			}
			if got.now != want.now {
				t.Errorf("clock diverged: %v vs %v", got.now, want.now)
			}
			if !reflect.DeepEqual(got.done, want.done) {
				t.Errorf("completions diverged:\n got %+v\nwant %+v", got.done, want.done)
			}
		})
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestSnapshotRoundTrip checkpoints an engine mid-stream: State →
// restoreState → State must be a fixed point, and the restored engine must
// continue exactly like the original. The strand stream checkpoints right
// after a permanent fault strands a flow whose circuit the same outage
// truncated; the restored engine must not resurrect the stranded flow.
func TestSnapshotRoundTrip(t *testing.T) {
	workload := buildWorkload(3)
	strand := []Event{
		{Kind: KindRegister, At: 0, Coflow: 1, Flows: []FlowSpec{{Src: 0, Dst: 1, Bytes: 1e9}, {Src: 2, Dst: 3, Bytes: 4e9}}},
		{Kind: KindAdvance, At: 0.5},
		{Kind: KindFault, At: 0.5, Port: 0},
		{Kind: KindAdvance, At: 1},
		{Kind: KindAdvance, At: 1e4},
	}
	// A 1-byte flow checkpointed while its circuit sets up: rem and the
	// plan entry both hold exactly one byte.
	oneByte := []Event{
		{Kind: KindRegister, At: 0, Coflow: 1, Flows: []FlowSpec{{Src: 0, Dst: 1, Bytes: 1}, {Src: 2, Dst: 3, Bytes: 1e9}}},
		{Kind: KindAdvance, At: 0.005},
		{Kind: KindAdvance, At: 1},
	}
	for _, tc := range []struct {
		name  string
		cfg   EngineConfig
		evs   []Event
		split int
	}{
		{"workload", EngineConfig{Ports: 8, LinkBps: 1e9, Delta: 0.01}, workload, len(workload) / 2},
		{"strand", EngineConfig{Ports: 4, LinkBps: 1e9, Delta: 0.01}, strand, 4},
		{"one-byte", EngineConfig{Ports: 4, LinkBps: 100e9, Delta: 0.01}, oneByte, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEngine(tc.cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range tc.evs[:tc.split] {
				_, _ = e.Apply(ev)
			}
			if e.LiveCount() == 0 {
				t.Fatal("checkpoint has no live coflows; test is vacuous")
			}
			st := e.State()
			clone, err := NewEngine(tc.cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := clone.restoreState(st); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(clone.State(), st) {
				t.Fatal("State → restoreState → State is not a fixed point")
			}
			if tc.name == "strand" {
				// Builds that kept fractional bytes wrote a base field (with a
				// stray entry for the stranded flow) and fractional rem and
				// plan bytes. Such a snapshot must load to the same state:
				// base ignored, bytes rounded.
				raw, err := json.Marshal(st)
				if err != nil {
					t.Fatal(err)
				}
				var doc map[string]any
				if err := json.Unmarshal(raw, &doc); err != nil {
					t.Fatal(err)
				}
				ls := doc["live"].([]any)[0].(map[string]any)
				ls["base"] = []any{map[string]any{"src": 0, "dst": 1, "bytes": -6.125e7}}
				rem := ls["rem"].([]any)[0].(map[string]any)
				rem["bytes"] = rem["bytes"].(float64) + 0.375
				plan := doc["plan"].([]any)[0].(map[string]any)
				plan["Bytes"] = plan["Bytes"].(float64) - 0.25
				if raw, err = json.Marshal(doc); err != nil {
					t.Fatal(err)
				}
				var fractional engineState
				if err := json.Unmarshal(raw, &fractional); err != nil {
					t.Fatal(err)
				}
				old, err := NewEngine(tc.cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := old.restoreState(fractional); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(old.State(), st) {
					t.Fatal("a fractional snapshot with a base field loaded to a different state")
				}
			}
			// The clone must continue exactly like the original.
			for _, ev := range tc.evs[tc.split:] {
				_, _ = e.Apply(ev)
				_, _ = clone.Apply(ev)
			}
			if e.Digest() != clone.Digest() {
				t.Fatalf("restored engine diverged: %s vs %s", e.Digest(), clone.Digest())
			}
		})
	}
}

// TestStoreSkipsPreCheckpointRecords covers the crash window between snapshot
// rename and WAL rotation: records the snapshot already includes must not be
// re-applied.
func TestStoreSkipsPreCheckpointRecords(t *testing.T) {
	cfg := EngineConfig{Ports: 4, LinkBps: 1e9, Delta: 0.01}
	dir := t.TempDir()
	s, err := Open(dir, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := Event{Kind: KindRegister, At: 0, Coflow: 1, Flows: []FlowSpec{{Src: 0, Dst: 1, Bytes: 1e6}}}
	acked, _, err := s.Accept(reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := s.Engine().Digest()
	s.Close()

	// Simulate the un-rotated WAL: re-append the already-checkpointed record.
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appendWALRecord(f, acked); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rec, err := Open(dir, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Recovered() != 0 {
		t.Fatalf("replayed %d pre-checkpoint records, want 0", rec.Recovered())
	}
	if rec.Engine().Digest() != want {
		t.Fatal("pre-checkpoint record perturbed recovered state")
	}
}

// TestStoreRejectsConfigMismatch: a data directory snapshotted under one
// EngineConfig must refuse to open under another.
func TestStoreRejectsConfigMismatch(t *testing.T) {
	dir := t.TempDir()
	cfg := EngineConfig{Ports: 4, LinkBps: 1e9, Delta: 0.01}
	s, err := Open(dir, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Accept(Event{Kind: KindRegister, At: 0, Coflow: 1, Flows: []FlowSpec{{Src: 0, Dst: 1, Bytes: 1e6}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	other := cfg
	other.Delta = 0.02
	if _, err := Open(dir, other, nil, nil); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("open with changed config: err=%v, want ErrConfigMismatch", err)
	}
}

// TestStoreOpensRetiredFullReplanConfig: snapshots written while
// EngineConfig still carried the full_replan switch record it in their
// config; the switch is gone (SUNFLOW_FULL_REPLAN replaced it), and such a
// data directory must open under the same fabric parameters.
func TestStoreOpensRetiredFullReplanConfig(t *testing.T) {
	dir := t.TempDir()
	cfg := EngineConfig{Ports: 4, LinkBps: 1e9, Delta: 0.01}
	s, err := Open(dir, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Accept(Event{Kind: KindRegister, At: 0, Coflow: 1, Flows: []FlowSpec{{Src: 0, Dst: 1, Bytes: 1e6}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := s.Engine().Digest()
	s.Close()
	path := filepath.Join(dir, snapshotName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Replace(raw, []byte(`"seed":0}`), []byte(`"seed":0,"full_replan":true}`), 1)
	if bytes.Equal(old, raw) {
		t.Fatalf("snapshot config not found in %s", raw)
	}
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := Open(dir, cfg, nil, nil)
	if err != nil {
		t.Fatalf("open snapshot with full_replan set: %v", err)
	}
	defer rec.Close()
	if rec.Engine().Digest() != want {
		t.Fatal("recovered digest changed")
	}
}

// TestWALTornTailTruncated: recovery drops a damaged tail and subsequent
// appends land on a clean record boundary.
func TestWALTornTailTruncated(t *testing.T) {
	cfg := EngineConfig{Ports: 4, LinkBps: 1e9, Delta: 0.01}
	dir := t.TempDir()
	s, err := Open(dir, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Accept(Event{Kind: KindRegister, At: 0, Coflow: 1, Flows: []FlowSpec{{Src: 0, Dst: 1, Bytes: 1e6}}}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	walPath := filepath.Join(dir, walName)
	intact, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, tail := range []string{
		"garbage",                     // no frame at all
		"00000000 {\"kind\":\"regist", // unterminated record
		"ffffffff {\"kind\":\"advance\",\"at\":1}\n", // bad checksum
	} {
		if err := os.WriteFile(walPath, append(append([]byte{}, intact...), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Open(dir, cfg, nil, nil)
		if err != nil {
			t.Fatalf("tail %q: %v", tail, err)
		}
		if rec.Recovered() != 1 {
			t.Fatalf("tail %q: recovered %d records, want 1", tail, rec.Recovered())
		}
		// The tail must be gone and the log appendable.
		if _, _, err := rec.Accept(Event{Kind: KindAdvance, At: 5}); err != nil {
			t.Fatalf("tail %q: append after truncation: %v", tail, err)
		}
		rec.Close()
		again, err := Open(dir, cfg, nil, nil)
		if err != nil {
			t.Fatalf("tail %q: reopen: %v", tail, err)
		}
		if again.Recovered() != 2 {
			t.Fatalf("tail %q: reopen recovered %d records, want 2", tail, again.Recovered())
		}
		again.Close()
		// Reset for the next tail variant.
		if err := os.WriteFile(walPath, intact, 0o644); err != nil {
			t.Fatal(err)
		}
		os.Remove(filepath.Join(dir, snapshotName))
	}
}

// TestStoreRewindsPartialAppend: a failed append that leaves partial garbage
// at the WAL tail must not poison the record a retry appends after it — the
// store rewinds to the last good offset first. Without the rewind, recovery
// would truncate at the garbage and discard the retried record even though it
// was fsynced and acknowledged.
func TestStoreRewindsPartialAppend(t *testing.T) {
	cfg := EngineConfig{Ports: 4, LinkBps: 1e9, Delta: 0.01}
	dir := t.TempDir()
	s, err := Open(dir, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Accept(Event{Kind: KindRegister, At: 0, Coflow: 1, Flows: []FlowSpec{{Src: 0, Dst: 1, Bytes: 1e6}}}); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn append: partial bytes past the last good record, as a
	// failed appendWALRecord would leave them, with the failure flagged.
	if _, err := s.wal.Write([]byte("00000000 {\"kind\":\"regi")); err != nil {
		t.Fatal(err)
	}
	s.dirty = true
	// The retry must rewind before appending, not land after the garbage.
	if _, _, err := s.Accept(Event{Kind: KindAdvance, At: 5}); err != nil {
		t.Fatalf("accept after failed append: %v", err)
	}
	want := s.Engine().Digest()
	s.Close()

	rec, err := Open(dir, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Recovered() != 2 {
		t.Fatalf("recovered %d records, want 2 — the retried append was lost", rec.Recovered())
	}
	if got := rec.Engine().Digest(); got != want {
		t.Fatalf("digest after recovery %s, want %s", got, want)
	}
}

// TestStoreAcceptClassifiesWALFailures: append failures are walErrors
// (nothing persisted or applied — safe to retry), while Engine rejections
// after a durable append are not; retrying those would consume another WAL
// record and mutate the Engine again.
func TestStoreAcceptClassifiesWALFailures(t *testing.T) {
	cfg := EngineConfig{Ports: 4, LinkBps: 1e9, Delta: 0.01}
	s, err := Open(t.TempDir(), cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// A deterministic rejection past a durable append is not a WAL failure.
	if _, _, err := s.Accept(Event{Kind: KindComplete, At: 0, Coflow: 9}); !errors.Is(err, ErrUnknownCoflow) || isWALError(err) {
		t.Fatalf("rejection err=%v, want ErrUnknownCoflow and not a walError", err)
	}
	seq := s.LastSeq()
	if seq != 1 {
		t.Fatalf("rejection consumed seq %d, want 1 (still WAL-logged)", seq)
	}
	// Break the WAL handle: appends now fail, and must classify as walError
	// without consuming a sequence number.
	s.wal.Close()
	_, _, err = s.Accept(Event{Kind: KindAdvance, At: 1})
	if !isWALError(err) {
		t.Fatalf("append failure err=%v, want a walError", err)
	}
	if s.LastSeq() != seq {
		t.Fatalf("failed append consumed seq %d", s.LastSeq())
	}
	// The wrap survives fmt.Errorf chains like acceptWithRetry's give-up.
	if !isWALError(fmt.Errorf("after retries: %w", err)) {
		t.Fatal("walError lost through error wrapping")
	}
	s.wal = nil // already closed
}

// TestReadWALBoundedStopsAtOversizedRegion: a corrupt region exceeding the
// record limit — with or without a newline — ends the scan at the last good
// record instead of buffering the whole region.
func TestReadWALBoundedStopsAtOversizedRegion(t *testing.T) {
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n, err := appendWALRecord(f, Event{Seq: 1, Kind: KindAdvance, At: 1})
	if err != nil {
		t.Fatal(err)
	}
	garbage := bytes.Repeat([]byte{'x'}, 1<<20) // newline-free
	if _, err := f.Write(garbage); err != nil {
		t.Fatal(err)
	}
	check := func(label string) {
		t.Helper()
		if _, err := f.Seek(0, 0); err != nil {
			t.Fatal(err)
		}
		events, good, err := readWALBounded(f, 4096)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if len(events) != 1 || good != int64(n) {
			t.Fatalf("%s: %d events, good=%d, want 1 event ending at %d", label, len(events), good, n)
		}
	}
	check("newline-free garbage")
	if _, err := f.Write([]byte{'\n'}); err != nil {
		t.Fatal(err)
	}
	check("newline-terminated oversized line")
}

// TestInfFloatRoundTrip pins the snapshot encoding of the two infinities: a
// version-2 snapshot spells them "+inf"/"-inf" and they load as
// core.Forever and math.MinInt64; version 3 writes those ticks as plain
// integers, which round-trip.
func TestInfFloatRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		v2   string
		want int64
	}{{`0`, 0}, {`1.5`, 1_500_000_000}, {`-2.25`, -2_250_000_000}, {`"+inf"`, core.Forever}, {`"-inf"`, math.MinInt64}} {
		var s v2Seconds
		if err := s.UnmarshalJSON([]byte(tc.v2)); err != nil {
			t.Fatalf("unmarshal %s: %v", tc.v2, err)
		}
		st, err := upgradeV2(stateOf[v2Seconds]{Now: s})
		if err != nil || st.Now != tc.want {
			t.Fatalf("version-2 %s loads as %v (%v), want %v", tc.v2, st.Now, err, tc.want)
		}
		raw, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		var back engineState
		if err := json.Unmarshal(raw, &back); err != nil || back.Now != tc.want {
			t.Fatalf("round trip %v → %s → %v (%v)", tc.want, raw, back.Now, err)
		}
	}
	// Seconds no tick holds are rejected, not converted.
	if _, err := upgradeV2(stateOf[v2Seconds]{Now: 1e300}); err == nil {
		t.Fatal("a version-2 instant of 1e300 s loaded")
	}
}
