package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/pipeline"
)

// medStore builds a memory-only update stream over n gen.Med entities,
// each applied whole, with the candidate search off: the state a
// checkpoint persists, without the log the seeding would write.
func medStore(t *testing.T, n int) (*gen.Dataset, pipeline.Config, *pipeline.Updater) {
	t.Helper()
	if raceEnabled {
		t.Skip("race instrumentation multiplies the heap of a store this size")
	}
	if testing.Short() {
		t.Skipf("%d-entity store in -short mode", n)
	}
	ds := gen.Generate(genConfig(n))
	cfg := pipeline.Config{Master: ds.Master, Rules: ds.Rules}
	u := newUpdater(t, ds, cfg)
	ups := make([]pipeline.Update, 0, 1000)
	for i, e := range ds.Entities {
		ups = append(ups, pipeline.Update{Key: fmt.Sprintf("e%05d", i), Tuples: e.Instance.Tuples()})
		if len(ups) == cap(ups) || i == len(ds.Entities)-1 {
			if _, sum, err := u.Apply(ups); err != nil || sum.Errors > 0 {
				t.Fatalf("seeding: err=%v, %d entity errors", err, sum.Errors)
			}
			ups = ups[:0]
		}
	}
	return ds, cfg, u
}

// snapshotLines renders Updater.Snapshot: one line per key in key
// order, with the entity's tuples, its verdict and its target.
func snapshotLines(t *testing.T, u *pipeline.Updater) []string {
	t.Helper()
	keys, results, _, err := u.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(keys))
	for i, r := range results {
		line := keys[i]
		for _, tp := range r.Instance.Tuples() {
			line += " " + tp.Key()
		}
		out[i] = line + " | " + fingerprint(r)
	}
	return out
}

// TestCheckpointPastOneFrame checkpoints a 40,000-entity Med store,
// whose snapshot is larger than one frame can hold (maxRecord), and
// recovers it to the same keys, tuples, verdicts and targets.
func TestCheckpointPastOneFrame(t *testing.T) {
	ds, cfg, u := medStore(t, 40_000)
	dir := t.TempDir()
	st := mustOpen(t, dir, ds.Schema, Options{Fsync: SyncNever})
	start := time.Now()
	if _, err := st.Checkpoint(u); err != nil {
		t.Fatal(err)
	}
	took := time.Since(start)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(filepath.Join(dir, snapName))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() <= maxRecord {
		t.Fatalf("snapshot of %d bytes fits one %d-byte frame; the test needs a larger store", info.Size(), maxRecord)
	}
	want := snapshotLines(t, u)
	u = nil // hold one 40,000-entity store at a time (about 600 MB)
	runtime.GC()

	re := newUpdater(t, ds, cfg)
	st2 := mustOpen(t, dir, ds.Schema, Options{})
	defer st2.Close()
	start = time.Now()
	rs, err := st2.Recover(re)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("snapshot %.1f MB: checkpoint %v, recovery %v", float64(info.Size())/1e6, took, time.Since(start))
	if !rs.HadSnapshot || rs.Batches != 0 || rs.Entities != len(want) {
		t.Fatalf("recovery stats %+v: want the snapshot's %d entities and no log batches", rs, len(want))
	}
	diffStreams(t, "recovered 40,000-entity store", snapshotLines(t, re), want)
}

// TestCheckpointAllocationBound: a checkpoint streams the store to
// disk, so it allocates a fraction of the snapshot it writes rather
// than a copy of it (the snapshot of 10,800 Med entities is about 23
// MB).
func TestCheckpointAllocationBound(t *testing.T) {
	ds, _, u := medStore(t, 10_800)
	dir := t.TempDir()
	st := mustOpen(t, dir, ds.Schema, Options{Fsync: SyncNever})
	defer st.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := st.Checkpoint(u); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	info, err := os.Stat(filepath.Join(dir, snapName))
	if err != nil {
		t.Fatal(err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("checkpoint allocated %.1f MB for a %.1f MB snapshot", float64(alloc)/1e6, float64(info.Size())/1e6)
	if 2*alloc >= uint64(info.Size()) {
		t.Fatalf("checkpoint allocated %d bytes for a %d-byte snapshot; the bound is half its size", alloc, info.Size())
	}
}
