// Package wal makes the live-entity store durable: an append-only,
// CRC-checksummed write-ahead log of Update batches, periodic
// snapshots of every live entity's raw tuples, and a recovery path
// that replays snapshot + WAL tail through the Updater — so a relaccd
// restart (or a crash mid-batch) loses nothing that was acknowledged.
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
// On-disk layout under the store directory. Both files have one
// layout, read by one scanner: magic "RACWAL01", one schema frame,
// then batch records.
//
//	wal.log       batch records in sequence order
//	snapshot.dat  batch records at the snapshot's sequence number, each
//	              packing whole entities (key plus tuples) up to
//	              snapshotBudget, then an empty batch record that marks
//	              the snapshot complete
//	snapshot.tmp  in-progress snapshot; ignored and removed at Open
//
// Checkpoint streams snapshot.tmp, fsyncs, renames it over
// snapshot.dat, fsyncs the directory, and only THEN truncates the log
// (by swapping in a fresh one). A crash between those steps is safe in
// every window: the old snapshot plus the full log, or the new snapshot
// plus a log whose records are all ≤ its sequence number (skipped on
// replay), are both exactly recoverable. crash_test.go kills the
// process at each fault point and proves it. A snapshot.dat in the
// retired single-frame layout (magic "RACSNAP1") is refused by Open.
package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
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

// walMagic is the 8-byte signature both store files start with; a file
// that does not start with it is rejected outright (it is some other
// file, not a torn one of ours). oldSnapMagic started snapshots in the
// retired single-frame layout, which Open refuses by name.
const (
	walMagic     = "RACWAL01"
	oldSnapMagic = "RACSNAP1"
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
// given entity schema. It reads the snapshot's sequence number, scans
// the existing log, verifies both schema frames, and TRUNCATES any torn
// tail — a record cut short or corrupted by a crash mid-append — so
// subsequent appends extend the last whole record. A snapshot Open
// cannot read, such as one in the retired single-frame layout, fails
// it before anything in dir changes. Open does not replay anything;
// call Recover.
func Open(dir string, schema *model.Schema, opts Options) (*Store, error) {
	if schema == nil {
		return nil, fmt.Errorf("wal: store needs an entity schema")
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	s := &Store{dir: dir, schema: schema, opts: opts}
	if err := s.readSnapshotSeq(); err != nil {
		return nil, err
	}
	// A leftover snapshot.tmp is an interrupted checkpoint; the durable
	// snapshot (if any) is still whole, so the tmp is garbage.
	_ = os.Remove(filepath.Join(dir, tmpName))
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

// readSnapshotSeq reads the durable snapshot's sequence number from its
// first record; Recover reads the rest.
func (s *Store) readSnapshotSeq() error {
	f, sc, err := s.scanFile(snapName)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	b, ok := sc.next()
	if !ok {
		return fmt.Errorf("wal: %s has no whole first record: %w", snapName, sc.err)
	}
	s.snap = b.Seq
	return nil
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
	sc, err := newScanner(f, walName, s.schema)
	if err != nil {
		f.Close()
		return err
	}
	for b, ok := sc.next(); ok; b, ok = sc.next() {
		s.seq = b.Seq
	}
	good := sc.off
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
	s.lastSync.Store(time.Now().UnixNano())
	return nil
}

// logHeader is the header both store files start with: the magic and
// the schema frame.
func logHeader(schema *model.Schema) []byte {
	return appendFrame([]byte(walMagic), encodeSchema(schema))
}

// writeLogHeader stamps a fresh log with logHeader.
func (s *Store) writeLogHeader(f *os.File) error {
	if _, err := f.Write(logHeader(s.schema)); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// scanner reads a store file, wal.log or snapshot.dat, record by
// record. next stops at the end of the file or at the first record
// that is torn, fails its CRC or does not decode as a batch; err then
// says which (io.EOF at a clean end), and off is the offset just past
// the last whole record.
type scanner struct {
	r      *bufio.Reader
	schema *model.Schema
	off    int64
	err    error
}

// newScanner reads a store file's header from r: the magic and a
// schema frame that must match schema. A bad magic or a foreign schema
// is a hard error (wrong file, not a torn one); name labels it.
func newScanner(r io.Reader, name string, schema *model.Schema) (*scanner, error) {
	sc := &scanner{r: bufio.NewReaderSize(r, 1<<16), schema: schema}
	magic := make([]byte, len(walMagic))
	if _, err := io.ReadFull(sc.r, magic); err != nil || string(magic) != walMagic {
		if string(magic) == oldSnapMagic {
			return nil, fmt.Errorf("wal: %s is a snapshot in the retired single-frame layout (magic %s), which this version does not read", name, oldSnapMagic)
		}
		return nil, fmt.Errorf("wal: %s exists but is not a store file", name)
	}
	schemaFrame, err := readFrame(sc.r)
	if err != nil {
		return nil, fmt.Errorf("wal: %s schema frame: %w", name, err)
	}
	if err := checkSchema(schemaFrame, schema); err != nil {
		return nil, err
	}
	sc.off = int64(len(magic) + frameHeader + len(schemaFrame))
	return sc, nil
}

// scanFile opens dir/name read-only and reads its header; the caller
// closes the file.
func (s *Store) scanFile(name string) (*os.File, *scanner, error) {
	f, err := os.Open(filepath.Join(s.dir, name))
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	sc, err := newScanner(f, name, s.schema)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return f, sc, nil
}

// next returns the next whole record, or false where the usable file
// ends.
func (sc *scanner) next() (Batch, bool) {
	payload, err := readFrame(sc.r)
	if err != nil {
		sc.err = err
		return Batch{}, false
	}
	b, err := decodeBatch(payload, sc.schema)
	if err != nil {
		// The frame's CRC matched but the payload does not parse as a
		// batch: corrupt at write time. Nothing after it can be
		// trusted either — same treatment as a torn frame.
		sc.err = err
		return Batch{}, false
	}
	sc.off += int64(frameHeader + len(payload))
	return b, true
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
	if err := fitsFrame("batch", len(payload)); err != nil {
		s.mu.Unlock()
		return 0, err
	}
	frame := appendFrame(nil, payload)
	if err := s.fault("append"); err != nil {
		// Crash-injection: a fault here may write a PREFIX of the
		// frame — exactly the torn record a SIGKILL mid-append leaves
		// (TornFault), or a partial write the process SURVIVES and
		// must repair (ShortWriteFault).
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

// fault consults the crash-injection hook at a named point; nil when
// no hook is armed.
func (s *Store) fault(point string) error {
	if s.testFault == nil {
		return nil
	}
	return s.testFault(point)
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
