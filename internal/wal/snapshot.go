// Snapshots and recovery: the compaction half of the durable update
// stream. A snapshot captures the whole live store — every entity's
// raw tuples — at one quiesced sequence number; once it is durable the
// log restarts empty, so the log's length is bounded by the snapshot
// cadence instead of the stream's lifetime. Recovery inverts it:
// re-absorb every snapshotted entity, then replay the WAL records
// newer than the snapshot in sequence order. Value IDs are private to
// each entity's grounding, so nothing about them is persisted.
package wal

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/model"
	"repro/internal/pipeline"
)

// WriteSnapshot persists a point-in-time snapshot of the store state
// and truncates the log it covers. The caller must guarantee the
// state is QUIESCED: keys/entities reflect every batch up to the
// store's current sequence number and no Apply is in flight —
// Checkpoint arranges exactly that; use it instead of calling this
// directly. A state whose encoding does not fit one frame is refused
// before anything is written: the published snapshot and the log stay
// as they were.
func (s *Store) WriteSnapshot(keys []string, entities []*model.EntityInstance) (uint64, error) {
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

	body := encodeSnapshotBody(s.schema, keys, entities)
	if err := fitsFrame("snapshot body", body); err != nil {
		return 0, err
	}
	buf := append([]byte(snapMagic), appendFrame(nil, appendUvarint(nil, seq))...)
	buf = appendFrame(buf, body)

	tmp := filepath.Join(s.dir, tmpName)
	if err := writeFileSync(tmp, buf); err != nil {
		return 0, err
	}
	if fault := s.testFault; fault != nil {
		if err := fault("snapshot-written"); err != nil {
			return 0, err // crash: tmp exists, durable snapshot unchanged
		}
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapName)); err != nil {
		return 0, fmt.Errorf("wal: publishing snapshot: %w", err)
	}
	if err := s.syncDir(); err != nil {
		return 0, err
	}
	if fault := s.testFault; fault != nil {
		if err := fault("snapshot-renamed"); err != nil {
			return 0, err // crash: new snapshot durable, log not yet truncated
		}
	}
	// The snapshot is durable; now the log may restart. Records ≤ seq
	// that survive a crash before this truncation are skipped on
	// replay, so every ordering of these steps recovers exactly.
	if err := s.resetLog(seq); err != nil {
		return 0, err
	}
	return seq, nil
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

// writeFileSync writes data to path and fsyncs it.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
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
		seq, werr = s.WriteSnapshot(keys, entities)
		return werr
	})
	return seq, err
}

// snapshot body layout:
//
//	schema section        (same structural encoding as the log header)
//	dict:    uvarint n, then n-1 values; written empty (n = 1)
//	entities: uvarint m, then m × (key, uvarint ntuples, tuples)
//
// The dictionary section is a leftover of a layout whose value IDs
// were global and restored on recovery. Readers skip it, so snapshots
// that carry a full one still load.
func encodeSnapshotBody(schema *model.Schema, keys []string, entities []*model.EntityInstance) []byte {
	b := appendFrame(nil, encodeSchema(schema))
	b = appendUvarint(b, 1)
	b = appendUvarint(b, uint64(len(keys)))
	for i, key := range keys {
		b = appendString(b, key)
		tuples := entities[i].Tuples()
		b = appendUvarint(b, uint64(len(tuples)))
		for _, t := range tuples {
			b = appendTuple(b, t)
		}
	}
	return b
}

// snapshotData is a decoded snapshot body.
type snapshotData struct {
	seq     uint64
	keys    []string
	tuples  [][]*model.Tuple
	present bool
}

// readSnapshot loads and fully validates snapshot.dat; present=false
// when none exists.
func (s *Store) readSnapshot() (snapshotData, error) {
	var out snapshotData
	f, err := os.Open(filepath.Join(s.dir, snapName))
	if err != nil {
		if os.IsNotExist(err) {
			return out, nil
		}
		return out, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	seq, err := readSnapshotSeq(br)
	if err != nil {
		return out, err
	}
	body, err := readFrame(br)
	if err != nil {
		return out, fmt.Errorf("wal: snapshot body frame: %w", err)
	}
	d := &decoder{buf: body}
	schemaFrame, err := readFrameBuf(d)
	if err != nil {
		return out, err
	}
	if err := checkSchema(schemaFrame, s.schema); err != nil {
		return out, err
	}
	nd, err := d.uvarint()
	if err != nil {
		return out, err
	}
	if nd == 0 || nd > uint64(len(body)) {
		return out, fmt.Errorf("wal: snapshot claims a %d-value dictionary", nd)
	}
	for i := uint64(1); i < nd; i++ {
		if _, err := d.value(); err != nil {
			return out, err
		}
	}
	ne, err := d.uvarint()
	if err != nil {
		return out, err
	}
	if ne > uint64(len(body)) {
		return out, fmt.Errorf("wal: snapshot claims %d entities", ne)
	}
	out.keys = make([]string, 0, ne)
	out.tuples = make([][]*model.Tuple, 0, ne)
	for i := uint64(0); i < ne; i++ {
		key, err := d.string()
		if err != nil {
			return out, err
		}
		nt, err := d.uvarint()
		if err != nil {
			return out, err
		}
		if nt > uint64(len(body)) {
			return out, fmt.Errorf("wal: snapshot entity %q claims %d tuples", key, nt)
		}
		ts := make([]*model.Tuple, 0, nt)
		for j := uint64(0); j < nt; j++ {
			t, err := d.tuple(s.schema)
			if err != nil {
				return out, err
			}
			ts = append(ts, t)
		}
		out.keys = append(out.keys, key)
		out.tuples = append(out.tuples, ts)
	}
	if d.off != len(body) {
		return out, fmt.Errorf("wal: %d trailing bytes after snapshot body", len(body)-d.off)
	}
	out.seq, out.present = seq, true
	return out, nil
}

// readFrameBuf reads a nested frame out of an in-memory decoder.
func readFrameBuf(d *decoder) ([]byte, error) {
	hdr, err := d.bytes(8)
	if err != nil {
		return nil, err
	}
	n := uint64(hdr[0]) | uint64(hdr[1])<<8 | uint64(hdr[2])<<16 | uint64(hdr[3])<<24
	payload, err := d.bytes(n)
	if err != nil {
		return nil, err
	}
	want := uint32(hdr[4]) | uint32(hdr[5])<<8 | uint32(hdr[6])<<16 | uint32(hdr[7])<<24
	if got := crcOf(payload); got != want {
		return nil, fmt.Errorf("%w: nested frame CRC mismatch", errTorn)
	}
	return payload, nil
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

// Recover rebuilds the live store: the snapshot's entities first, then
// every whole WAL record past the snapshot's sequence number, replayed
// through the updater in sequence order.
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

	snap, err := s.readSnapshot()
	if err != nil {
		return rs, err
	}
	if snap.present {
		// Re-absorb every entity as one replay batch: keys register in
		// batch order, reproducing the pre-crash first-seen order.
		ups := make([]pipeline.Update, len(snap.keys))
		for i, key := range snap.keys {
			ups[i] = pipeline.Update{Key: key, Tuples: snap.tuples[i]}
		}
		if len(ups) > 0 {
			results, _, err := u.Replay(ups)
			if err != nil {
				return rs, fmt.Errorf("wal: restoring snapshot: %w", err)
			}
			for _, r := range results {
				if r.Err != nil && r.Deduction == nil {
					// A snapshotted entity was COMMITTED state; failing
					// to re-absorb it means the store and the updater
					// configuration disagree. Refuse, loudly.
					return rs, fmt.Errorf("wal: restoring snapshot: %w", r.Err)
				}
			}
		}
		rs.HadSnapshot, rs.SnapshotSeq, rs.LastSeq = true, snap.seq, snap.seq
	}

	batches, err := s.readTail(snap.seq)
	if err != nil {
		return rs, err
	}
	for _, b := range batches {
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

// readTail returns every whole batch record with sequence number
// beyond after, in log order. The log was already truncated to its
// last whole record at Open, but the read stays defensive: a torn or
// undecodable record ends the tail exactly as Open's scan would.
func (s *Store) readTail(after uint64) ([]Batch, error) {
	f, err := os.Open(filepath.Join(s.dir, walName))
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	magic := make([]byte, len(walMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != walMagic {
		return nil, fmt.Errorf("wal: %s exists but is not a write-ahead log", walName)
	}
	schemaFrame, err := readFrame(br)
	if err != nil {
		return nil, fmt.Errorf("wal: log schema frame: %w", err)
	}
	if err := checkSchema(schemaFrame, s.schema); err != nil {
		return nil, err
	}
	var out []Batch
	for {
		payload, err := readFrame(br)
		if err != nil {
			return out, nil // EOF or torn tail: the log ends here
		}
		rec, err := decodeBatch(payload, s.schema)
		if err != nil {
			return out, nil
		}
		if rec.Seq <= after {
			// Snapshotted before the truncation landed; already
			// covered by the restored snapshot.
			continue
		}
		out = append(out, rec)
	}
}
