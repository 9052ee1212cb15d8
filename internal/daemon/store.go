package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"sunflow/internal/obs"
)

// Store is the crash-safe persistence layer under a Daemon: an Engine plus a
// write-ahead log of every accepted event and periodic snapshots of Engine
// state. The protocol is strict write-ahead:
//
//	validate → Append (fsync) → Apply → acknowledge
//
// so every acknowledged event is on disk before it touches the Engine. After
// a crash, Open restores the latest snapshot and replays the WAL suffix
// (records with Seq beyond the snapshot); because the Engine is a pure
// function of the accepted event sequence — deterministic rejections
// included — the recovered Engine is bit-identical to the pre-crash one, down
// to its schedule digest. recovery_test.go proves this over kill points at
// every event boundary, torn WAL tails, and checkpoints at arbitrary
// positions.
type Store struct {
	dir      string
	snapPath string
	walPath  string

	eng *Engine
	wal *os.File
	// seq is the last sequence number assigned.
	seq uint64
	// good is the WAL offset after the last fully appended record. A failed
	// append rewinds the file here before any retry, so a retried record can
	// never land after partial garbage from the failed attempt — recovery
	// would truncate at the garbage and discard the retried record even
	// though it was fsynced and acknowledged.
	good int64
	// dirty is set when a failed append may have left bytes past good and
	// the rewind itself failed; Accept re-attempts the rewind before the next
	// append.
	dirty bool
	// recovered counts WAL records replayed by Open.
	recovered int

	m *obs.DaemonMetrics
}

// snapshotVersion guards the snapshot schema. Version 3 writes instants as
// integer-nanosecond ticks; version 2 (float seconds) still loads. A
// version-1 snapshot lacks state version 2 added, so it is rejected rather
// than silently diverging from the pre-crash engine.
const snapshotVersion = 3

// snapshotOf is the on-disk checkpoint with instants of type T;
// snapshotFile is the one this build writes.
type snapshotOf[T any] struct {
	Version int          `json:"version"`
	Config  EngineConfig `json:"config"`
	Seq     uint64       `json:"seq"`
	State   stateOf[T]   `json:"state"`
}

type snapshotFile = snapshotOf[int64]

// decodeSnapshot reads a checkpoint; a version-2 one is upgraded to ticks.
func decodeSnapshot(raw []byte) (snapshotFile, error) {
	var snap snapshotFile
	err := json.Unmarshal(raw, &snap) // the version decodes even if v2 instants do not
	if snap.Version != 2 {
		return snap, err
	}
	var v2 snapshotOf[v2Seconds]
	if err := json.Unmarshal(raw, &v2); err != nil {
		return snap, err
	}
	snap.Version = snapshotVersion
	snap.State, err = upgradeV2(v2.State)
	return snap, err
}

const (
	snapshotName = "snapshot.json"
	walName      = "wal.log"
)

// ErrConfigMismatch rejects opening a data directory checkpointed under a
// different EngineConfig: replaying its history under new parameters would
// silently produce different schedules.
var ErrConfigMismatch = errors.New("daemon: data directory was written under a different engine config")

// Open loads (or initializes) the data directory: restore the latest
// snapshot if present, replay the WAL suffix through the Engine, truncate any
// torn tail, and leave the WAL open for appends. The directory is created if
// missing.
func Open(dir string, cfg EngineConfig, o *obs.Observer, m *obs.DaemonMetrics) (*Store, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("daemon: data dir: %w", err)
	}
	s := &Store{
		dir:      dir,
		snapPath: filepath.Join(dir, snapshotName),
		walPath:  filepath.Join(dir, walName),
		m:        m,
	}
	eng, err := NewEngine(cfg, o)
	if err != nil {
		return nil, err
	}
	s.eng = eng

	var snapSeq uint64
	if raw, err := os.ReadFile(s.snapPath); err == nil {
		snap, err := decodeSnapshot(raw)
		if err != nil {
			return nil, fmt.Errorf("daemon: snapshot %s corrupt: %w", s.snapPath, err)
		}
		if snap.Version != snapshotVersion {
			return nil, fmt.Errorf("daemon: snapshot %s has version %d, want %d", s.snapPath, snap.Version, snapshotVersion)
		}
		if snap.Config != cfg {
			return nil, fmt.Errorf("%w: snapshot has %+v", ErrConfigMismatch, snap.Config)
		}
		if err := eng.restoreState(snap.State); err != nil {
			return nil, err
		}
		snapSeq = snap.Seq
		s.seq = snap.Seq
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("daemon: read snapshot: %w", err)
	}

	wal, err := os.OpenFile(s.walPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("daemon: open wal: %w", err)
	}
	events, goodBytes, err := readWAL(wal)
	if err != nil {
		wal.Close()
		return nil, err
	}
	for _, ev := range events {
		if ev.Seq <= snapSeq {
			// Pre-checkpoint record: the crash hit between snapshot rename and
			// WAL rotation. The snapshot already includes it.
			continue
		}
		// Deterministic rejections replay as rejections; both fold into the
		// digest identically, so errors here are part of history, not faults.
		_, _ = s.eng.Apply(ev)
		s.seq = ev.Seq
		s.recovered++
	}
	// Drop the torn tail (if any) so the next append starts on a record
	// boundary.
	if err := wal.Truncate(goodBytes); err != nil {
		wal.Close()
		return nil, fmt.Errorf("daemon: truncate torn wal tail: %w", err)
	}
	if _, err := wal.Seek(goodBytes, 0); err != nil {
		wal.Close()
		return nil, fmt.Errorf("daemon: seek wal: %w", err)
	}
	s.wal = wal
	s.good = goodBytes
	if m != nil {
		m.RecoveredEvents.Add(int64(s.recovered))
	}
	return s, nil
}

// Engine returns the Store's engine. Callers must not apply events directly;
// use Accept so every applied event is WAL-durable first.
func (s *Store) Engine() *Engine { return s.eng }

// LastSeq returns the last assigned sequence number.
func (s *Store) LastSeq() uint64 { return s.seq }

// Recovered returns how many WAL records Open replayed.
func (s *Store) Recovered() int { return s.recovered }

// Accept runs the write-ahead protocol for one event: assign the next
// sequence number, append and fsync the record, then apply it to the Engine.
// The returned event carries its assigned Seq. Apply rejections are returned
// to the caller but the record stays in the WAL — rejection is deterministic,
// so replay reproduces it. Append failures come back as a walError (nothing
// persisted or applied, safe to retry); apply errors do not.
func (s *Store) Accept(ev Event) (Event, bool, error) {
	if s.dirty {
		if err := s.rewind(); err != nil {
			return ev, false, &walError{fmt.Errorf("daemon: rewind wal after failed append: %w", err)}
		}
	}
	ev.Seq = s.seq + 1
	n, err := appendWALRecord(s.wal, ev)
	if err != nil {
		// The append did not happen (or is not durable): do not apply, and do
		// not consume the sequence number. Rewind past any partially written
		// bytes so a retry starts on a record boundary.
		s.dirty = true
		if rerr := s.rewind(); rerr != nil {
			err = fmt.Errorf("%w (rewind also failed: %v)", err, rerr)
		}
		return ev, false, &walError{err}
	}
	s.good += int64(n)
	s.seq = ev.Seq
	if m := s.m; m != nil {
		m.WALAppends.Inc()
		m.WALBytes.Add(int64(n))
	}
	applied, err := s.eng.Apply(ev)
	return ev, applied, err
}

// rewind truncates the WAL back to the last known-good record boundary and
// restores the write offset there, discarding partial bytes a failed append
// may have left.
func (s *Store) rewind() error {
	if err := s.wal.Truncate(s.good); err != nil {
		return err
	}
	if _, err := s.wal.Seek(s.good, 0); err != nil {
		return err
	}
	s.dirty = false
	return nil
}

// Checkpoint writes an atomic snapshot of the Engine and rotates the WAL.
// Crash windows are all safe: before the rename the old snapshot+WAL pair is
// intact; between rename and truncation the WAL holds records the snapshot
// already covers, which replay skips by sequence number.
func (s *Store) Checkpoint() error {
	snap := snapshotFile{
		Version: snapshotVersion,
		Config:  s.eng.cfg,
		Seq:     s.seq,
		State:   s.eng.State(),
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("daemon: encode snapshot: %w", err)
	}
	tmp := s.snapPath + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("daemon: snapshot tmp: %w", err)
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		return fmt.Errorf("daemon: write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("daemon: fsync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("daemon: close snapshot: %w", err)
	}
	if err := os.Rename(tmp, s.snapPath); err != nil {
		return fmt.Errorf("daemon: publish snapshot: %w", err)
	}
	syncDir(s.dir)
	// Rotate: everything in the WAL is now covered by the snapshot.
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("daemon: rotate wal: %w", err)
	}
	s.good = 0
	if _, err := s.wal.Seek(0, 0); err != nil {
		// Offset unknown; force a rewind before the next append.
		s.dirty = true
		return fmt.Errorf("daemon: rotate wal: %w", err)
	}
	s.dirty = false
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("daemon: fsync rotated wal: %w", err)
	}
	if m := s.m; m != nil {
		m.Snapshots.Inc()
	}
	return nil
}

// Close releases the WAL handle. It does not checkpoint; state is already
// durable record by record.
func (s *Store) Close() error {
	if s == nil || s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	return err
}

// syncDir fsyncs a directory so a rename within it is durable. Errors are
// dropped: some filesystems reject directory fsync, and the rename itself is
// already ordered after the tmp file's data sync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}
