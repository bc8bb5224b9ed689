// Snapshots and recovery: the compaction half of the durable update
// stream. A snapshot captures the whole live store — every entity's
// raw tuples — at one quiesced sequence number; once it is durable the
// log restarts empty, so the log's length is bounded by the snapshot
// cadence instead of the stream's lifetime. A snapshot is written in
// the log's own format, as batch records at its sequence number, and
// recovery inverts it: replay every snapshot record, then the WAL
// records newer than the snapshot, in order. Value IDs are private to
// each entity's grounding, so nothing about them is persisted.
package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/model"
	"repro/internal/pipeline"
)

// snapshotBudget is the payload size a snapshot record packs whole
// entities up to: a record closes before the entity that would take it
// past the budget. An entity larger than the budget gets a record of
// its own, which only maxRecord bounds.
const snapshotBudget = 1 << 20

// writeSnapshot persists a point-in-time snapshot of the store state
// and truncates the log it covers. The caller must guarantee the
// state is QUIESCED: keys/entities reflect every batch up to the
// store's current sequence number and no Apply is in flight —
// Checkpoint arranges exactly that. A snapshot that cannot be written
// whole, such as one holding an entity larger than one frame, is
// refused and its partial file removed: the published snapshot and the
// log stay as they were.
func (s *Store) writeSnapshot(keys []string, entities []*model.EntityInstance) (uint64, error) {
	if len(keys) != len(entities) {
		return 0, fmt.Errorf("wal: snapshot has %d keys but %d entities", len(keys), len(entities))
	}
	s.mu.Lock()
	seq := s.seq
	closed := s.f == nil
	s.mu.Unlock()
	if closed {
		return 0, fmt.Errorf("wal: store is closed")
	}

	tmp := filepath.Join(s.dir, tmpName)
	if crashed, err := s.writeSnapshotFile(tmp, seq, keys, entities); err != nil {
		if !crashed {
			os.Remove(tmp)
		}
		return 0, err
	}
	if err := s.fault("snapshot-written"); err != nil {
		return 0, err // crash: tmp exists, durable snapshot unchanged
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapName)); err != nil {
		return 0, fmt.Errorf("wal: publishing snapshot: %w", err)
	}
	if err := s.syncDir(); err != nil {
		return 0, err
	}
	if err := s.fault("snapshot-renamed"); err != nil {
		return 0, err // crash: new snapshot durable, log not yet truncated
	}
	// The snapshot is durable; now the log may restart. Records ≤ seq
	// that survive a crash before this truncation are skipped on
	// replay, so every ordering of these steps recovers exactly.
	if err := s.resetLog(seq); err != nil {
		return 0, err
	}
	return seq, nil
}

// writeSnapshotFile streams the snapshot to path through one buffered
// writer — the log header, the entities packed into batch records at
// seq, the closing empty record — and fsyncs it. crashed reports an
// injected crash, which leaves the file as far as it was written.
func (s *Store) writeSnapshotFile(path string, seq uint64, keys []string, entities []*model.EntityInstance) (crashed bool, err error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return false, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<16)
	// crash flushes what is written so far, as a process killed at
	// point would leave it, and consults the crash-injection hook.
	crash := func(point string) error {
		if s.testFault == nil {
			return nil
		}
		w.Flush()
		err := s.testFault(point)
		crashed = err != nil
		return err
	}
	first := true
	record := func(n int, body []byte) error {
		if err := writeRecord(w, seq, n, body); err != nil || !first {
			return err
		}
		first = false
		return crash("snapshot-frame")
	}

	w.Write(logHeader(s.schema)) // a write error sticks to w; Flush reports it
	body := make([]byte, 0, snapshotBudget)
	n := 0
	for i, key := range keys {
		mark := len(body)
		body = appendUpdate(body, key, entities[i].Tuples())
		if len(body) > snapshotBudget && n > 0 {
			// Close the record before this entity, which opens the next.
			if err := record(n, body[:mark]); err != nil {
				return crashed, err
			}
			body = append(body[:0], body[mark:]...)
			n = 0
		}
		n++
	}
	if n > 0 {
		if err := record(n, body); err != nil {
			return crashed, err
		}
	}
	if err := crash("snapshot-closing"); err != nil {
		return crashed, err
	}
	if err := writeRecord(w, seq, 0, nil); err != nil {
		return false, err
	}
	if err := w.Flush(); err != nil {
		return false, fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		return false, fmt.Errorf("wal: %w", err)
	}
	if err := f.Close(); err != nil {
		return false, fmt.Errorf("wal: %w", err)
	}
	return false, nil
}

// resetLog swaps in a fresh, empty log (crash-safely, via rename) and
// records the snapshot coverage.
func (s *Store) resetLog(seq uint64) error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("wal: store is closed")
	}
	tmp := filepath.Join(s.dir, walName+".new")
	nf, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := s.writeLogHeader(nf); err != nil {
		nf.Close()
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, walName)); err != nil {
		nf.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := s.syncDir(); err != nil {
		nf.Close()
		return err
	}
	old := s.f
	s.f = nf
	size, _ := nf.Seek(0, io.SeekEnd)
	s.size, s.synced = size, size
	s.snap = seq
	old.Close()
	return nil
}

// Checkpoint quiesces the updater (no Apply in flight, every logged
// batch fully absorbed), snapshots its entire state, and truncates
// the covered log. It returns the sequence number the snapshot
// covers. Concurrent checkpoints serialise; appends resume the moment
// the updater's gate drops.
func (s *Store) Checkpoint(u *pipeline.Updater) (uint64, error) {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	var seq uint64
	err := u.Checkpoint(func(keys []string, entities []*model.EntityInstance) error {
		var werr error
		seq, werr = s.writeSnapshot(keys, entities)
		return werr
	})
	return seq, err
}

// RecoveryStats summarises what Recover rebuilt.
type RecoveryStats struct {
	// HadSnapshot reports whether a snapshot was restored.
	HadSnapshot bool
	// SnapshotSeq is the restored snapshot's coverage (0 without one).
	SnapshotSeq uint64
	// Entities is the number of live entities after recovery.
	Entities int
	// Batches is the number of WAL tail batches replayed.
	Batches int
	// LastSeq is the sequence number the stream resumes after.
	LastSeq uint64
}

// Empty reports whether there was nothing to recover — the signal a
// daemon uses to seed a brand-new store from CSV exactly once.
func (rs RecoveryStats) Empty() bool { return !rs.HadSnapshot && rs.LastSeq == 0 }

// Recover rebuilds the live store: the snapshot's records first, then
// every whole WAL record past the snapshot's sequence number, replayed
// through the updater in file order.
// The updater must be EMPTY (freshly built, nothing applied, no
// persister attached yet) and configured exactly as the run that
// wrote the log — recovery re-runs the same absorptions, and a batch
// that failed absorption then fails identically now, which is what
// keeps replayed state byte-identical to the pre-crash store. Attach
// the store with Updater.AttachPersister AFTER Recover returns, so
// replayed batches are not re-logged. Nothing checks that the master
// data and rules match the writer's: under different ones, the
// recovered entities are deduced afresh under the updater's.
//
// A snapshot is restored whole or not at all: one that lacks its
// closing record or holds a damaged record fails Recover, as does a
// snapshotted entity that fails to re-absorb. A failed recovery leaves
// the updater partly filled and unusable; discard it.
//
// One counter is NOT preserved: an entity restored from the snapshot
// absorbs its whole accumulated evidence as a single batch, so its
// Version restarts at 0 plus one per replayed tail batch, not at the
// pre-crash count. Verdicts, tuples (and their order), targets and
// candidates are byte-identical; version numbers are per-process
// bookkeeping, not part of the durable state.
func (s *Store) Recover(u *pipeline.Updater) (RecoveryStats, error) {
	var rs RecoveryStats
	if u.Len() != 0 {
		return rs, fmt.Errorf("wal: recovery needs an empty updater, this one holds %d entities", u.Len())
	}

	seq, had, err := s.restoreSnapshot(u)
	if err != nil {
		return rs, err
	}
	if had {
		rs.HadSnapshot, rs.SnapshotSeq, rs.LastSeq = true, seq, seq
	}

	f, sc, err := s.scanFile(walName)
	if err != nil {
		return rs, err
	}
	defer f.Close()
	// Open already truncated the log to its last whole record, and a
	// torn or undecodable record ends this scan exactly as it ended
	// Open's.
	for b, ok := sc.next(); ok; b, ok = sc.next() {
		if b.Seq <= rs.SnapshotSeq {
			// Snapshotted before the log reset landed; already
			// covered by the restored snapshot.
			continue
		}
		// Per-entity errors are EXPECTED here: a batch that failed
		// absorption pre-crash fails identically on replay (the bound
		// and schema checks are deterministic), leaving the same state.
		if _, _, err := u.Replay(b.Updates); err != nil {
			return rs, fmt.Errorf("wal: replaying batch %d: %w", b.Seq, err)
		}
		rs.Batches++
		rs.LastSeq = b.Seq
	}
	rs.Entities = u.Len()
	return rs, nil
}

// restoreSnapshot replays snapshot.dat's records through u in file
// order, so keys register in the order the snapshot lists them and
// each entity absorbs its evidence once, and returns the sequence
// number its closing record carries; had is false when there is no
// snapshot.
func (s *Store) restoreSnapshot(u *pipeline.Updater) (seq uint64, had bool, err error) {
	f, sc, err := s.scanFile(snapName)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	for {
		b, ok := sc.next()
		if !ok {
			return 0, false, fmt.Errorf("wal: %s ends before its closing record: %w", snapName, sc.err)
		}
		if len(b.Updates) == 0 {
			return b.Seq, true, nil
		}
		results, _, err := u.Replay(b.Updates)
		if err != nil {
			return 0, false, fmt.Errorf("wal: restoring snapshot: %w", err)
		}
		for _, r := range results {
			if r.AbsorbFailed() {
				// A snapshotted entity was COMMITTED state; failing
				// to re-absorb it means the store and the updater
				// configuration disagree. Refuse, loudly.
				return 0, false, fmt.Errorf("wal: restoring snapshot: %w", r.Err)
			}
		}
	}
}
