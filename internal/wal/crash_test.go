// Crash-injection harness: every test here "kills" the process at a
// named fault point (the store's testFault hook freezes the on-disk
// state exactly as a SIGKILL there would), restarts from the
// directory, retries whatever the client never got an ack for, and
// demands the resumed stream be byte-identical to one that never
// crashed. Five distinct fault points are covered: mid-append (with
// torn tails of several shapes), after the snapshot tmp's first record
// and before its closing record, after the snapshot tmp is written
// but before it is published, and after the snapshot is published but
// before the log is truncated.
package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// neverCrashed is the control: the same waves applied to a
// memory-only updater in one uninterrupted run.
func neverCrashed(t *testing.T, entities int) []string {
	t.Helper()
	ds, cfg, waves := testWaves(t, entities)
	u := newUpdater(t, ds, cfg)
	applyAll(t, u, waves)
	return streamFingerprint(t, u)
}

// TestCrashMidAppend kills the store inside LogApply, leaving zero or
// a prefix of the in-flight record's bytes on disk. The Apply fails
// (the batch was never acknowledged), the restarted process drops the
// torn tail, recovers the acknowledged batches, and the client's
// retry of the lost batch converges on the never-crashed stream.
func TestCrashMidAppend(t *testing.T) {
	const entities = 6
	want := neverCrashed(t, entities)

	cases := []struct {
		name string
		torn int
	}{
		// A frame is an 8-byte length+CRC header plus payload; tear it
		// at every interesting boundary.
		{"nothing-written", 1 << 30},
		{"mid-header", 3},
		{"mid-payload", 9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds, cfg, waves := testWaves(t, entities)
			dir := t.TempDir()
			live := newUpdater(t, ds, cfg)
			st := mustOpen(t, dir, ds.Schema, Options{Fsync: SyncAlways})
			if _, err := st.Recover(live); err != nil {
				t.Fatal(err)
			}
			live.AttachPersister(st)
			applyAll(t, live, waves[:2])

			// Arm the crash: the next append dies after tc.torn bytes.
			st.testFault = func(point string) error {
				if point == "append" {
					return TornFault(tc.torn)
				}
				return nil
			}
			if _, _, err := live.Apply(waves[2]); err == nil {
				t.Fatal("apply survived the injected crash")
			}
			// SIGKILL: the store is abandoned — no Close, no final sync.

			rds, rcfg := restartDataset(t, entities)
			rwaves := wavesOf(rds)
			re := newUpdater(t, rds, rcfg)
			st2 := mustOpen(t, dir, rds.Schema, Options{})
			defer st2.Close()
			rs, err := st2.Recover(re)
			if err != nil {
				t.Fatal(err)
			}
			if rs.Batches != 2 || rs.LastSeq != 2 || rs.HadSnapshot {
				t.Fatalf("recovered %+v: want exactly the 2 acknowledged batches", rs)
			}
			re.AttachPersister(st2)
			// The client retries the batch it never got an ack for.
			if _, _, err := re.Apply(rwaves[2]); err != nil {
				t.Fatal(err)
			}
			if got := st2.Stats().LastSeq; got != 3 {
				t.Fatalf("retried batch logged at seq %d, want 3 — the torn record's number was not reclaimed", got)
			}
			diffStreams(t, "crash mid-append ("+tc.name+")", streamFingerprint(t, re), want)
		})
	}
}

// TestCrashMidSnapshot kills a checkpoint while it streams
// snapshot.tmp: after the first record, and before the closing record.
// The tmp holds whole records but no closing one; the restart drops it
// and recovers the snapshot published before, plus the log tail.
func TestCrashMidSnapshot(t *testing.T) {
	const entities = 6
	want := neverCrashed(t, entities)

	for _, point := range []string{"snapshot-frame", "snapshot-closing"} {
		t.Run(point, func(t *testing.T) {
			ds, cfg, waves := testWaves(t, entities)
			dir := t.TempDir()
			live := newUpdater(t, ds, cfg)
			st := mustOpen(t, dir, ds.Schema, Options{Fsync: SyncAlways})
			if _, err := st.Recover(live); err != nil {
				t.Fatal(err)
			}
			live.AttachPersister(st)
			applyAll(t, live, waves[:1])
			if _, err := st.Checkpoint(live); err != nil {
				t.Fatal(err)
			}
			applyAll(t, live, waves[1:2])

			st.testFault = func(p string) error {
				if p == point {
					return fmt.Errorf("injected crash at %s", p)
				}
				return nil
			}
			if _, err := st.Checkpoint(live); err == nil {
				t.Fatal("checkpoint survived the injected crash")
			}
			// SIGKILL. The tmp holds what the writer had flushed.
			f, sc, err := st.scanFile(tmpName)
			if err != nil {
				t.Fatalf("the fault point should leave snapshot.tmp behind: %v", err)
			}
			b, ok := sc.next()
			if !ok || len(b.Updates) == 0 {
				t.Fatalf("snapshot.tmp lacks a whole entity record (scan: %v)", sc.err)
			}
			if _, ok := sc.next(); ok || sc.err != io.EOF {
				t.Fatalf("snapshot.tmp goes on past its first record (scan: %v)", sc.err)
			}
			f.Close()

			rds, rcfg := restartDataset(t, entities)
			rwaves := wavesOf(rds)
			re := newUpdater(t, rds, rcfg)
			st2 := mustOpen(t, dir, rds.Schema, Options{})
			defer st2.Close()
			rs, err := st2.Recover(re)
			if err != nil {
				t.Fatal(err)
			}
			if !rs.HadSnapshot || rs.SnapshotSeq != 1 || rs.Batches != 1 || rs.LastSeq != 2 {
				t.Fatalf("recovered %+v: want the snapshot at seq 1 and one log batch", rs)
			}
			if _, err := os.Stat(filepath.Join(dir, tmpName)); !os.IsNotExist(err) {
				t.Fatalf("restart left snapshot.tmp in place (err=%v)", err)
			}
			re.AttachPersister(st2)
			if _, _, err := re.Apply(rwaves[2]); err != nil {
				t.Fatal(err)
			}
			diffStreams(t, "crash mid-snapshot ("+point+")", streamFingerprint(t, re), want)
		})
	}
}

// TestCrashBeforeSnapshotPublish kills the checkpoint after
// snapshot.tmp is written and fsynced but before the rename. The tmp
// file must be ignored (and cleared) on restart; the log alone still
// recovers everything.
func TestCrashBeforeSnapshotPublish(t *testing.T) {
	const entities = 6
	want := neverCrashed(t, entities)

	ds, cfg, waves := testWaves(t, entities)
	dir := t.TempDir()
	live := newUpdater(t, ds, cfg)
	st := mustOpen(t, dir, ds.Schema, Options{Fsync: SyncAlways})
	if _, err := st.Recover(live); err != nil {
		t.Fatal(err)
	}
	live.AttachPersister(st)
	applyAll(t, live, waves[:2])

	st.testFault = func(point string) error {
		if point == "snapshot-written" {
			return fmt.Errorf("injected crash: snapshot written, not published")
		}
		return nil
	}
	if _, err := st.Checkpoint(live); err == nil {
		t.Fatal("checkpoint survived the injected crash")
	}
	if _, err := os.Stat(filepath.Join(dir, tmpName)); err != nil {
		t.Fatalf("the fault point should leave snapshot.tmp behind: %v", err)
	}
	// SIGKILL.

	rds, rcfg := restartDataset(t, entities)
	rwaves := wavesOf(rds)
	re := newUpdater(t, rds, rcfg)
	st2 := mustOpen(t, dir, rds.Schema, Options{})
	defer st2.Close()
	rs, err := st2.Recover(re)
	if err != nil {
		t.Fatal(err)
	}
	if rs.HadSnapshot {
		t.Fatalf("an UNPUBLISHED snapshot was restored: %+v", rs)
	}
	if rs.Batches != 2 || rs.LastSeq != 2 {
		t.Fatalf("recovered %+v: want 2 batches from the log", rs)
	}
	if _, err := os.Stat(filepath.Join(dir, tmpName)); !os.IsNotExist(err) {
		t.Fatalf("restart left snapshot.tmp in place (err=%v)", err)
	}
	re.AttachPersister(st2)
	if _, _, err := re.Apply(rwaves[2]); err != nil {
		t.Fatal(err)
	}
	diffStreams(t, "crash before snapshot publish", streamFingerprint(t, re), want)
}

// TestCrashAfterSnapshotPublish kills the checkpoint after the rename
// — the snapshot is durable but the log it covers was never
// truncated. Restart must restore the snapshot and SKIP the log
// records it already covers, not replay them on top.
func TestCrashAfterSnapshotPublish(t *testing.T) {
	const entities = 6
	want := neverCrashed(t, entities)

	ds, cfg, waves := testWaves(t, entities)
	dir := t.TempDir()
	live := newUpdater(t, ds, cfg)
	st := mustOpen(t, dir, ds.Schema, Options{Fsync: SyncAlways})
	if _, err := st.Recover(live); err != nil {
		t.Fatal(err)
	}
	live.AttachPersister(st)
	applyAll(t, live, waves[:2])
	logSize := st.Stats().WALBytes

	st.testFault = func(point string) error {
		if point == "snapshot-renamed" {
			return fmt.Errorf("injected crash: snapshot published, log untruncated")
		}
		return nil
	}
	if _, err := st.Checkpoint(live); err == nil {
		t.Fatal("checkpoint survived the injected crash")
	}
	// SIGKILL. The durable directory now holds BOTH a snapshot
	// covering seq 2 and a log still containing seqs 1–2.
	if fi, err := os.Stat(filepath.Join(dir, walName)); err != nil || fi.Size() != logSize {
		t.Fatalf("log was truncated before the crash (size %v, want %d, err=%v)", fi, logSize, err)
	}

	rds, rcfg := restartDataset(t, entities)
	rwaves := wavesOf(rds)
	re := newUpdater(t, rds, rcfg)
	st2 := mustOpen(t, dir, rds.Schema, Options{})
	defer st2.Close()
	rs, err := st2.Recover(re)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.HadSnapshot || rs.SnapshotSeq != 2 {
		t.Fatalf("recovered %+v: want the published snapshot at seq 2", rs)
	}
	if rs.Batches != 0 {
		t.Fatalf("replayed %d batches the snapshot already covers — double apply", rs.Batches)
	}
	re.AttachPersister(st2)
	if _, _, err := re.Apply(rwaves[2]); err != nil {
		t.Fatal(err)
	}
	if got := st2.Stats().LastSeq; got != 3 {
		t.Fatalf("stream resumed at seq %d, want 3", got)
	}
	diffStreams(t, "crash after snapshot publish", streamFingerprint(t, re), want)
}

// TestCrashLoop hammers the mid-append crash repeatedly — every wave
// first dies mid-record, then a full process restart recovers and
// retries it — proving recovery composes: each restart builds on the
// previous crash's directory, torn tail and all.
func TestCrashLoop(t *testing.T) {
	const entities = 4
	want := neverCrashed(t, entities)
	dir := t.TempDir()

	for wave := 0; wave < 3; wave++ {
		// Process N: recovers, then dies 5 bytes into this wave's record.
		ds, cfg, waves := testWaves(t, entities)
		u := newUpdater(t, ds, cfg)
		st := mustOpen(t, dir, ds.Schema, Options{Fsync: SyncAlways})
		rs, err := st.Recover(u)
		if err != nil {
			t.Fatalf("restart %d: %v", wave, err)
		}
		if rs.Batches != wave {
			t.Fatalf("restart %d recovered %d batches, want %d", wave, rs.Batches, wave)
		}
		u.AttachPersister(st)
		st.testFault = func(point string) error {
			if point == "append" {
				return TornFault(5)
			}
			return nil
		}
		if _, _, err := u.Apply(waves[wave]); err == nil {
			t.Fatalf("restart %d: apply survived the injected crash", wave)
		}
		// SIGKILL: abandon st without Close.

		// Process N+1: recovers past the torn tail and retries the
		// unacknowledged wave, which now sticks.
		rds, rcfg := restartDataset(t, entities)
		rwaves := wavesOf(rds)
		r := newUpdater(t, rds, rcfg)
		st2 := mustOpen(t, dir, rds.Schema, Options{Fsync: SyncAlways})
		rs2, err := st2.Recover(r)
		if err != nil {
			t.Fatalf("retry restart %d: %v", wave, err)
		}
		if rs2.Batches != wave {
			t.Fatalf("retry restart %d recovered %d batches, want %d", wave, rs2.Batches, wave)
		}
		r.AttachPersister(st2)
		if _, _, err := r.Apply(rwaves[wave]); err != nil {
			t.Fatalf("retry %d: %v", wave, err)
		}
		if wave == 2 {
			diffStreams(t, "crash loop", streamFingerprint(t, r), want)
		}
		st2.Close()
	}
}

// TestAppendWriteErrorHealsTail pins the SAME-PROCESS tail repair: a
// short write (disk full, not a crash) leaves torn bytes, the process
// lives on, and later acked appends must NOT land beyond the tear —
// replay stops at the first torn record, so they would be lost.
func TestAppendWriteErrorHealsTail(t *testing.T) {
	ds, cfg, waves := testWaves(t, 2)
	dir := t.TempDir()
	u := newUpdater(t, ds, cfg)
	st := mustOpen(t, dir, ds.Schema, Options{})
	if _, err := st.Recover(u); err != nil {
		t.Fatal(err)
	}
	u.AttachPersister(st)
	applyAll(t, u, waves[:1])
	clean := st.Stats().WALBytes

	// The short write: 5 bytes land, the append errors, we survive.
	st.testFault = func(point string) error { return ShortWriteFault(5) }
	if _, _, err := u.Apply(waves[1]); err == nil {
		t.Fatal("apply survived the injected write failure")
	}
	st.testFault = nil

	// The store lives on. Without tail repair the next acked append
	// would land after 5 bytes of garbage and be lost on replay.
	if _, _, err := u.Apply(waves[1]); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().WALBytes; got <= clean {
		t.Fatalf("second wave did not reach the log (%d bytes, clean was %d)", got, clean)
	}
	st.Close()

	rds, rcfg := restartDataset(t, 2)
	re := newUpdater(t, rds, rcfg)
	st2 := mustOpen(t, dir, rds.Schema, Options{})
	defer st2.Close()
	rs, err := st2.Recover(re)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Batches != 2 {
		t.Fatalf("recovered %d batches, want both acked waves — the post-failure append was stranded", rs.Batches)
	}
	diffStreams(t, "healed tail", streamFingerprint(t, re), streamFingerprint(t, u))
}
