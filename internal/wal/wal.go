// Package wal makes the live-entity store durable: an append-only,
// CRC-checksummed write-ahead log of Update batches, periodic
// snapshots of every live entity's raw tuples, and a recovery path that replays snapshot + WAL tail through the
// Updater — so a relaccd restart (or a crash mid-batch) loses nothing
// that was acknowledged.
//
// A Store is the pipeline.Persister the Updater calls: Apply hands the
// raw batch to LogApply BEFORE touching any entity, LogApply assigns
// the batch its sequence number and appends one framed record, and the
// configured fsync policy decides when the bytes are forced to disk
// (SyncAlways group-commits: concurrent appenders share one fsync).
// The sequence numbers are authoritative — recovery replays batches in
// sequence order, and per-key apply order equals sequence order for
// every history the store can observe (the Updater logs and applies
// under a shared apply gate; see pipeline.Updater).
//
// Durability contract (DESIGN.md invariant 7): a batch is in the log
// entirely, behind a matching CRC, or it is not in the log at all.
// Recovery replays the snapshot, then every whole record after the
// snapshot's sequence number, and stops at the FIRST torn or
// corrupted record — a crash mid-append leaves a torn tail that is
// detected, dropped, and overwritten by the next append, never
// guessed at, never replayed as a partial batch. Replayed state is
// byte-identical to a fresh Updater fed the same batches
// (recovery_test.go extends the incremental ≡ fresh property 1a to
// replay ≡ fresh).
//
// On-disk layout under the store directory:
//
//	wal.log       magic "RACWAL01", one schema frame, then batch frames
//	snapshot.dat  magic "RACSNAP1", a meta frame (sequence number),
//	              then one body frame (schema, an empty dictionary
//	              section, entities)
//	snapshot.tmp  in-progress snapshot; ignored and removed at Open
//
// Checkpoint writes snapshot.tmp, fsyncs, renames over snapshot.dat,
// fsyncs the directory, and only THEN truncates the log (by swapping
// in a fresh one). A crash between those steps is safe in every
// window: the old snapshot plus the full log, or the new snapshot plus
// a log whose records are all ≤ its sequence number (skipped on
// replay), are both exactly recoverable. crash_test.go kills the
// process at each fault point and proves it.
package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/pipeline"
)

// errTorn marks a frame that failed validation: recovery treats it as
// the end of the usable log.
var errTorn = errors.New("wal: torn record")

// walMagic / snapMagic are the 8-byte file signatures; a file that
// does not start with its magic is rejected outright (it is some other
// file, not a torn one of ours).
const (
	walMagic  = "RACWAL01"
	snapMagic = "RACSNAP1"
)

const (
	walName  = "wal.log"
	snapName = "snapshot.dat"
	tmpName  = "snapshot.tmp"
)

// SyncPolicy picks when appended records are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs before LogApply returns. Concurrent appenders
	// group-commit: whoever reaches the sync first flushes everything
	// appended so far, and the rest observe their bytes already synced.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background cadence (Options.Interval,
	// default 100ms). A crash can lose at most the last interval's
	// acknowledged batches; the log still never tears across a record.
	SyncInterval
	// SyncNever issues no explicit fsyncs (the OS flushes when it
	// pleases). Torn-tail detection still holds; durability of
	// acknowledged batches does not.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy maps the -fsync flag values to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", s)
}

// Options tunes a Store; the zero value fsyncs on every append.
type Options struct {
	// Fsync is the sync policy (default SyncAlways).
	Fsync SyncPolicy
	// Interval is the SyncInterval cadence; <= 0 means 100ms.
	Interval time.Duration
}

func (o Options) interval() time.Duration {
	if o.Interval > 0 {
		return o.Interval
	}
	return 100 * time.Millisecond
}

// Stats is a point-in-time view of the store, surfaced by /v1/stats.
type Stats struct {
	// WALBytes is the current size of the log file, header included.
	WALBytes int64
	// LastSeq is the sequence number of the last appended batch (0
	// when nothing was ever logged).
	LastSeq uint64
	// SnapshotSeq is the sequence number the durable snapshot covers
	// (0 when no snapshot exists).
	SnapshotSeq uint64
	// LastSync is when the log was last fsynced (Open counts: the
	// header is synced at creation). Zero only before Open completes.
	LastSync time.Time
	// Fsync is the configured policy.
	Fsync SyncPolicy
}

// Store is the durable face of one update stream. It implements
// pipeline.Persister; all methods are safe for concurrent use.
type Store struct {
	dir    string
	schema *model.Schema
	opts   Options

	// mu guards the append path: file handle, size, sequence counter.
	// It is never held across an fsync, so appenders queue only for
	// the write itself and group-commit on the sync below.
	mu   sync.Mutex
	f    *os.File
	size int64 // bytes appended (= file size)
	seq  uint64
	snap uint64 // sequence the durable snapshot covers

	// syncMu serialises fsyncs; synced is the size known flushed.
	// Appenders that find synced already past their record return
	// without syncing — that is the group commit.
	syncMu   sync.Mutex
	synced   int64
	lastSync atomic.Int64 // unix nanos of the last fsync

	// ckptMu serialises checkpoints (manual, periodic and
	// shutdown-time snapshots may race).
	ckptMu sync.Mutex

	stop chan struct{} // closes the interval syncer
	done chan struct{}

	// testFault, when non-nil, is consulted at named fault points and
	// aborts the surrounding operation — the crash-injection harness
	// freezes the store in exactly the state a SIGKILL at that point
	// would leave on disk.
	testFault func(point string) error
}

// Open opens (creating if needed) the durable store in dir for the
// given entity schema. It scans the existing log, verifies the schema
// frame, and TRUNCATES any torn tail — a record cut short or
// corrupted by a crash mid-append — so subsequent appends extend the
// last whole record. Open does not replay anything; call Recover.
func Open(dir string, schema *model.Schema, opts Options) (*Store, error) {
	if schema == nil {
		return nil, fmt.Errorf("wal: store needs an entity schema")
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	// A leftover snapshot.tmp is an interrupted checkpoint; the durable
	// snapshot (if any) is still whole, so the tmp is garbage.
	_ = os.Remove(filepath.Join(dir, tmpName))

	s := &Store{dir: dir, schema: schema, opts: opts}
	if err := s.readSnapshotMeta(); err != nil {
		return nil, err
	}
	if err := s.openLog(); err != nil {
		return nil, err
	}
	if s.snap > s.seq {
		// The log was truncated by a checkpoint (or lost records it
		// had already snapshotted); sequence numbering resumes past
		// the snapshot's coverage.
		s.seq = s.snap
	}
	if opts.Fsync == SyncInterval {
		s.stop = make(chan struct{})
		s.done = make(chan struct{})
		go s.syncLoop()
	}
	return s, nil
}

// readSnapshotMeta reads the durable snapshot's sequence number (frame
// 1 of snapshot.dat) without loading its body.
func (s *Store) readSnapshotMeta() error {
	f, err := os.Open(filepath.Join(s.dir, snapName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	seq, err := readSnapshotSeq(f)
	if err != nil {
		return err
	}
	s.snap = seq
	return nil
}

// readSnapshotSeq reads magic + meta frame from an opened snapshot.
func readSnapshotSeq(r io.Reader) (uint64, error) {
	magic := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != snapMagic {
		return 0, fmt.Errorf("wal: %s is not a snapshot file", snapName)
	}
	meta, err := readFrame(r)
	if err != nil {
		return 0, fmt.Errorf("wal: snapshot meta frame: %w", err)
	}
	d := &decoder{buf: meta}
	seq, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	return seq, nil
}

// openLog opens wal.log, writing the header for a fresh file and
// scanning an existing one to its last whole record.
func (s *Store) openLog() error {
	path := filepath.Join(s.dir, walName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o666)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if info.Size() == 0 {
		if err := s.writeLogHeader(f); err != nil {
			f.Close()
			return err
		}
		size, _ := f.Seek(0, io.SeekEnd)
		s.f, s.size, s.synced = f, size, size
		s.lastSync.Store(time.Now().UnixNano())
		return s.syncDir()
	}
	good, lastSeq, err := s.scanLog(f)
	if err != nil {
		f.Close()
		return err
	}
	if good < info.Size() {
		// Torn tail: drop it so new appends extend the last whole
		// record instead of burying live records behind garbage.
		if err := f.Truncate(good); err != nil {
			f.Close()
			return fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("wal: %w", err)
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	s.f, s.size, s.synced = f, good, good
	s.seq = lastSeq
	s.lastSync.Store(time.Now().UnixNano())
	return nil
}

// writeLogHeader stamps a fresh log: magic plus the schema frame.
func (s *Store) writeLogHeader(f *os.File) error {
	hdr := append([]byte(walMagic), appendFrame(nil, encodeSchema(s.schema))...)
	if _, err := f.Write(hdr); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// scanLog validates the header and walks every record, returning the
// offset just past the last whole record and that record's sequence
// number. Torn tails end the scan cleanly; a bad magic or a foreign
// schema is a hard error (wrong file, not a torn one).
func (s *Store) scanLog(f *os.File) (good int64, lastSeq uint64, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, fmt.Errorf("wal: %w", err)
	}
	cr := &countingReader{r: f}
	magic := make([]byte, len(walMagic))
	if _, err := io.ReadFull(cr, magic); err != nil || string(magic) != walMagic {
		return 0, 0, fmt.Errorf("wal: %s exists but is not a write-ahead log", walName)
	}
	schemaFrame, err := readFrame(cr)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: log schema frame: %w", err)
	}
	if err := checkSchema(schemaFrame, s.schema); err != nil {
		return 0, 0, err
	}
	good = cr.n
	for {
		payload, err := readFrame(cr)
		if err != nil {
			// io.EOF: clean end. errTorn: crash leftovers; drop them.
			// Anything else would also be read through errTorn.
			return good, lastSeq, nil
		}
		rec, err := decodeBatch(payload, s.schema)
		if err != nil {
			// The frame's CRC matched but the payload does not parse
			// as a batch: corrupt at write time. Nothing after it can
			// be trusted either — same torn-tail treatment.
			return good, lastSeq, nil
		}
		good = cr.n
		lastSeq = rec.Seq
	}
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// LogApply implements pipeline.Persister: it durably records one
// update batch and returns its sequence number. Every tuple must use
// the store's exact schema, and the encoded batch must fit one frame —
// a batch that could not round-trip the log is rejected here, before
// anything is written and before the Updater touches any entity.
func (s *Store) LogApply(updates []pipeline.Update) (uint64, error) {
	for i, up := range updates {
		for j, t := range up.Tuples {
			if t == nil {
				return 0, fmt.Errorf("wal: update %d tuple %d is nil", i, j)
			}
			if t.Schema() != s.schema {
				return 0, fmt.Errorf("wal: update %d tuple %d uses schema %s, store persists %s",
					i, j, t.Schema().Name(), s.schema.Name())
			}
		}
	}

	s.mu.Lock()
	if s.f == nil {
		s.mu.Unlock()
		return 0, fmt.Errorf("wal: store is closed")
	}
	seq := s.seq + 1
	payload := encodeBatch(seq, updates)
	if err := fitsFrame("batch", payload); err != nil {
		s.mu.Unlock()
		return 0, err
	}
	frame := appendFrame(nil, payload)
	if fault := s.testFault; fault != nil {
		// Crash-injection: a fault here may write a PREFIX of the
		// frame — exactly the torn record a SIGKILL mid-append leaves
		// (TornFault), or a partial write the process SURVIVES and
		// must repair (ShortWriteFault).
		if err := fault("append"); err != nil {
			if n := faultTornBytes(err); n > 0 && n < len(frame) {
				s.f.Write(frame[:n])
			}
			if n, ok := faultShortWriteBytes(err); ok {
				if n > 0 && n < len(frame) {
					s.f.Write(frame[:n])
				}
				s.healTailLocked()
			}
			s.mu.Unlock()
			return 0, err
		}
	}
	if _, err := s.f.Write(frame); err != nil {
		// A short write (disk full, I/O error) leaves a torn record.
		// If the process dies here the next Open drops it — but this
		// process may live on and append again, and a later acked
		// record landing BEYOND the tear would be unreachable on
		// replay (the scan stops at the first torn record). Heal the
		// tail now.
		s.healTailLocked()
		s.mu.Unlock()
		return 0, fmt.Errorf("wal: appending batch: %w", err)
	}
	s.seq = seq
	s.size += int64(len(frame))
	end := s.size
	s.mu.Unlock()

	if s.opts.Fsync == SyncAlways {
		if err := s.syncTo(end); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// syncTo fsyncs the log unless a concurrent appender's fsync already
// covered offset end — the group commit.
func (s *Store) syncTo(end int64) error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	if s.synced >= end {
		return nil
	}
	s.mu.Lock()
	f, size := s.f, s.size
	s.mu.Unlock()
	if f == nil {
		return fmt.Errorf("wal: store is closed")
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	s.synced = size
	s.lastSync.Store(time.Now().UnixNano())
	return nil
}

// syncLoop is the SyncInterval background flusher.
func (s *Store) syncLoop() {
	defer close(s.done)
	t := time.NewTicker(s.opts.interval())
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.mu.Lock()
			size := s.size
			closed := s.f == nil
			s.mu.Unlock()
			if closed {
				return
			}
			if size > 0 {
				_ = s.syncTo(size)
			}
		}
	}
}

// Sync forces everything appended so far to disk, regardless of
// policy.
func (s *Store) Sync() error {
	s.mu.Lock()
	size := s.size
	s.mu.Unlock()
	return s.syncTo(size)
}

// Stats reports the store's current durability counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := Stats{WALBytes: s.size, LastSeq: s.seq, SnapshotSeq: s.snap, Fsync: s.opts.Fsync}
	s.mu.Unlock()
	if ns := s.lastSync.Load(); ns != 0 {
		st.LastSync = time.Unix(0, ns)
	}
	return st
}

// Close flushes and closes the log. The store is unusable afterwards.
func (s *Store) Close() error {
	if s.stop != nil {
		close(s.stop)
		<-s.done
		s.stop = nil
	}
	err := s.Sync()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f != nil {
		if cerr := s.f.Close(); err == nil {
			err = cerr
		}
		s.f = nil
	}
	return err
}

// syncDir fsyncs the store directory, making renames and creations
// durable on POSIX filesystems. It touches no store state, so callers
// may hold s.mu.
func (s *Store) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: fsync %s: %w", s.dir, err)
	}
	return nil
}

// healTailLocked truncates whatever a failed append left past the
// last whole record, so the next append extends clean log. If even
// the truncate fails the store is poisoned — no append may ever be
// acknowledged beyond an unreadable gap. Caller holds s.mu.
func (s *Store) healTailLocked() {
	if s.f == nil {
		return
	}
	if err := s.f.Truncate(s.size); err == nil {
		s.f.Seek(s.size, io.SeekStart)
	} else {
		s.f.Close()
		s.f = nil
	}
}

// tornError carries the byte count a fault-injected append should
// leave on disk before "crashing".
type tornError struct{ n int }

func (e *tornError) Error() string { return fmt.Sprintf("wal: injected crash after %d bytes", e.n) }

// TornFault builds the error a testFault hook returns to make the
// store write exactly n bytes of the in-flight record before dying —
// the torn tail a power cut mid-append leaves.
func TornFault(n int) error { return &tornError{n: n} }

func faultTornBytes(err error) int {
	var te *tornError
	if errors.As(err, &te) {
		return te.n
	}
	return 0
}

// shortWriteError is tornError's surviving-process twin: n bytes of
// the record land, the write errors, and the store repairs its tail —
// a disk-full partial write rather than a power cut.
type shortWriteError struct{ n int }

func (e *shortWriteError) Error() string {
	return fmt.Sprintf("wal: injected short write of %d bytes", e.n)
}

// ShortWriteFault builds the error a testFault hook returns to make an
// append fail after n bytes with the process still running.
func ShortWriteFault(n int) error { return &shortWriteError{n: n} }

func faultShortWriteBytes(err error) (int, bool) {
	var se *shortWriteError
	if errors.As(err, &se) {
		return se.n, true
	}
	return 0, false
}
