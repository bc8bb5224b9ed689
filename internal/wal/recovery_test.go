package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/topk"
)

// fingerprint renders everything a Result exposes, so equality means
// byte-identical per-entity output (same shape as the pipeline suite's
// helper — invariant 1a's currency, extended here to replay ≡ fresh).
func fingerprint(r pipeline.Result) string {
	if r.Err != nil {
		return "err:" + r.Err.Error()
	}
	s := fmt.Sprintf("cr=%v conflict=%q", r.Deduction.CR, r.Deduction.Conflict)
	if r.Deduction.CR {
		s += " target=" + r.Deduction.Target.Key()
	}
	for _, c := range r.Candidates {
		s += fmt.Sprintf(" cand=%s@%.6f", c.Tuple.Key(), c.Score)
	}
	s += fmt.Sprintf(" checks=%d pops=%d gen=%d", r.Stats.Checks, r.Stats.Pops, r.Stats.Generated)
	return s
}

// streamFingerprint settles the whole store: every key's full verdict
// plus a top-k query, keyed and ordered, so two updaters compare
// byte-identically. Versions are deliberately NOT part of the
// fingerprint: snapshot restore collapses an entity's batch history
// into one absorption, so the counter restarts while every verdict,
// tuple and candidate stays identical. Log-only tests assert versions
// explicitly — tail replay re-applies each batch and preserves them.
func streamFingerprint(t *testing.T, u *pipeline.Updater) []string {
	t.Helper()
	keys, results, _, err := u.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, len(keys))
	for i, key := range keys {
		line := fmt.Sprintf("%s n%d %s", key, results[i].Instance.Size(), fingerprint(results[i]))
		if q, ok := u.Query(key, 3, pipeline.AlgoTopKCT); ok {
			line += " | topk " + fingerprint(q)
		}
		out = append(out, line)
	}
	return out
}

func diffStreams(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entities vs %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: entity %d diverged:\n got: %s\nwant: %s", label, i, got[i], want[i])
		}
	}
}

func genConfig(entities int) gen.EntityConfig {
	cfg := gen.MedConfig()
	cfg.NumEntities = entities
	return cfg
}

func pipeConfig(ds *gen.Dataset) pipeline.Config {
	return pipeline.Config{Master: ds.Master, Rules: ds.Rules, Workers: 4, TopK: 3,
		Pref: topk.Preference{MaxChecks: 2000}}
}

// restartDataset reloads the master data the way a NEW PROCESS would:
// a second gen.Generate of the same config. The generator is
// deterministic, so every value matches the first dataset byte for
// byte, but every object (schema, master, rules) is fresh — recovery
// must not depend on pointer identity with the live stream's spec.
// TestRecoverReopenSameDataset covers the in-process case, a recovery
// updater built from the very objects the live one used.
func restartDataset(t *testing.T, entities int) (*gen.Dataset, pipeline.Config) {
	t.Helper()
	ds := gen.Generate(genConfig(entities))
	return ds, pipeConfig(ds)
}

// wavesOf splits a dataset into interleaved update batches —
// live-traffic shape, every entity touched by several batches. Pure
// function of the dataset, so the restart side of a crash test can
// rebuild byte-identical waves from its regenerated dataset.
func wavesOf(ds *gen.Dataset) [][]pipeline.Update {
	var waves [3][]pipeline.Update
	for i, e := range ds.Entities {
		key := fmt.Sprintf("e%02d", i)
		tuples := e.Instance.Tuples()
		cut1, cut2 := 1, 1+(len(tuples)-1)/2
		waves[0] = append(waves[0], pipeline.Update{Key: key, Tuples: tuples[:cut1]})
		if cut1 < cut2 {
			waves[1] = append(waves[1], pipeline.Update{Key: key, Tuples: tuples[cut1:cut2]})
		}
		if cut2 < len(tuples) {
			waves[2] = append(waves[2], pipeline.Update{Key: key, Tuples: tuples[cut2:]})
		}
	}
	return waves[:]
}

func testWaves(t *testing.T, entities int) (*gen.Dataset, pipeline.Config, [][]pipeline.Update) {
	t.Helper()
	ds := gen.Generate(genConfig(entities))
	return ds, pipeConfig(ds), wavesOf(ds)
}

func newUpdater(t *testing.T, ds *gen.Dataset, cfg pipeline.Config) *pipeline.Updater {
	t.Helper()
	u, err := pipeline.NewUpdater(ds.Schema, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func applyAll(t *testing.T, u *pipeline.Updater, waves [][]pipeline.Update) {
	t.Helper()
	for w, ups := range waves {
		if _, _, err := u.Apply(ups); err != nil {
			t.Fatalf("wave %d: %v", w, err)
		}
	}
}

// TestRecoverReplaysWALTail is replay ≡ fresh with no snapshot at all:
// kill after the last append, recover from the log alone.
func TestRecoverReplaysWALTail(t *testing.T) {
	ds, cfg, waves := testWaves(t, 8)
	dir := t.TempDir()

	live := newUpdater(t, ds, cfg)
	st := mustOpen(t, dir, ds.Schema, Options{Fsync: SyncNever})
	rs, err := st.Recover(live)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Empty() {
		t.Fatalf("fresh directory recovered %+v", rs)
	}
	live.AttachPersister(st)
	applyAll(t, live, waves)
	want := streamFingerprint(t, live)
	st.Close() // "crash": no checkpoint ever ran

	rds, rcfg := restartDataset(t, 8)
	re := newUpdater(t, rds, rcfg)
	st2 := mustOpen(t, dir, rds.Schema, Options{})
	defer st2.Close()
	rs, err = st2.Recover(re)
	if err != nil {
		t.Fatal(err)
	}
	if rs.HadSnapshot || rs.Batches != len(waves) || rs.Entities != len(ds.Entities) {
		t.Fatalf("recovery stats %+v: want %d batches, %d entities, no snapshot", rs, len(waves), len(ds.Entities))
	}
	diffStreams(t, "log-only recovery", streamFingerprint(t, re), want)
	// Log-only replay re-applies each batch individually, so even the
	// version counters survive (snapshot restore collapses them — see
	// streamFingerprint — but no snapshot ran here).
	for i := range ds.Entities {
		key := fmt.Sprintf("e%02d", i)
		if got, want := re.Version(key), live.Version(key); got != want {
			t.Fatalf("%s recovered at version %d, live is %d", key, got, want)
		}
	}

	// And the recovered stream equals a NEVER-persisted one fed the
	// same batches — the full replay ≡ fresh property.
	fresh := newUpdater(t, ds, cfg)
	applyAll(t, fresh, waves)
	diffStreams(t, "recovered vs fresh", streamFingerprint(t, re), streamFingerprint(t, fresh))
}

// TestRecoverSnapshotPlusTail checkpoints mid-stream, keeps appending,
// then recovers: snapshot first, WAL tail on top.
func TestRecoverSnapshotPlusTail(t *testing.T) {
	ds, cfg, waves := testWaves(t, 8)
	dir := t.TempDir()

	live := newUpdater(t, ds, cfg)
	st := mustOpen(t, dir, ds.Schema, Options{Fsync: SyncNever})
	if _, err := st.Recover(live); err != nil {
		t.Fatal(err)
	}
	live.AttachPersister(st)
	applyAll(t, live, waves[:2])
	seq, err := st.Checkpoint(live)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Fatalf("checkpoint covered seq %d, want 2", seq)
	}
	if got := st.Stats(); got.SnapshotSeq != 2 {
		t.Fatalf("stats after checkpoint: %+v", got)
	}
	applyAll(t, live, waves[2:])
	want := streamFingerprint(t, live)
	st.Close()

	rds, rcfg := restartDataset(t, 8)
	re := newUpdater(t, rds, rcfg)
	st2 := mustOpen(t, dir, rds.Schema, Options{})
	defer st2.Close()
	rs, err := st2.Recover(re)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.HadSnapshot || rs.SnapshotSeq != 2 || rs.Batches != 1 || rs.LastSeq != 3 {
		t.Fatalf("recovery stats %+v: want snapshot seq 2 + 1 replayed batch ending at 3", rs)
	}
	diffStreams(t, "snapshot+tail recovery", streamFingerprint(t, re), want)

	// Value IDs are per entity: the schema's base dictionary holds only
	// what construction put there, so neither the live stream, its
	// searches nor recovery grew it.
	base := newUpdater(t, rds, rcfg).Dict().Size()
	if re.Dict().Size() != base || live.Dict().Size() != base {
		t.Fatalf("base dictionaries hold %d (recovered) and %d (live) values, a fresh one %d",
			re.Dict().Size(), live.Dict().Size(), base)
	}
}

// TestRecoverReopenSameDataset reopens a store in the same process and
// recovers it into a new updater built from the SAME dataset objects
// the live one used: each updater owns its groundwork, so nothing the
// live stream built leaks into the recovered one.
func TestRecoverReopenSameDataset(t *testing.T) {
	ds, cfg, waves := testWaves(t, 8)
	dir := t.TempDir()

	live := newUpdater(t, ds, cfg)
	st := mustOpen(t, dir, ds.Schema, Options{Fsync: SyncNever})
	if _, err := st.Recover(live); err != nil {
		t.Fatal(err)
	}
	live.AttachPersister(st)
	applyAll(t, live, waves[:1])
	if _, err := st.Checkpoint(live); err != nil {
		t.Fatal(err)
	}
	applyAll(t, live, waves[1:2])
	want := streamFingerprint(t, live)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re := newUpdater(t, ds, cfg)
	st2 := mustOpen(t, dir, ds.Schema, Options{})
	defer st2.Close()
	rs, err := st2.Recover(re)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.HadSnapshot || rs.SnapshotSeq != 1 || rs.Batches != 1 {
		t.Fatalf("recovery stats %+v: want snapshot seq 1 + 1 replayed batch", rs)
	}
	diffStreams(t, "same-dataset reopen", streamFingerprint(t, re), want)
}

// TestRecoverAfterCleanShutdown is the relaccd drain path: checkpoint
// at shutdown, recover from the snapshot with an empty log.
func TestRecoverAfterCleanShutdown(t *testing.T) {
	ds, cfg, waves := testWaves(t, 6)
	dir := t.TempDir()

	live := newUpdater(t, ds, cfg)
	st := mustOpen(t, dir, ds.Schema, Options{Fsync: SyncNever})
	if _, err := st.Recover(live); err != nil {
		t.Fatal(err)
	}
	live.AttachPersister(st)
	applyAll(t, live, waves)
	if _, err := st.Checkpoint(live); err != nil {
		t.Fatal(err)
	}
	want := streamFingerprint(t, live)
	st.Close()

	rds, rcfg := restartDataset(t, 6)
	re := newUpdater(t, rds, rcfg)
	st2 := mustOpen(t, dir, rds.Schema, Options{})
	defer st2.Close()
	rs, err := st2.Recover(re)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.HadSnapshot || rs.Batches != 0 {
		t.Fatalf("clean shutdown left %+v: want a snapshot and an empty tail", rs)
	}
	diffStreams(t, "clean-shutdown recovery", streamFingerprint(t, re), want)

	// Appends resume after the recovered sequence number. The tuple
	// must come from the restart-side dataset: the store now carries
	// rds.Schema, and LogApply checks schema by pointer.
	seq, err := st2.LogApply([]pipeline.Update{{Key: "e00", Tuples: rds.Entities[0].Instance.Tuples()[:1]}})
	if err != nil {
		t.Fatal(err)
	}
	if seq != rs.LastSeq+1 {
		t.Fatalf("post-recovery append got seq %d, want %d", seq, rs.LastSeq+1)
	}
}

// TestRecoveryOrderingSameKey replays several same-key batches and
// proves they land in original apply order — sequence numbers are
// authoritative — by checking the version counter and the exact
// accumulated instance.
func TestRecoveryOrderingSameKey(t *testing.T) {
	ds, cfg, _ := testWaves(t, 1)
	dir := t.TempDir()
	tuples := ds.Entities[0].Instance.Tuples()
	if len(tuples) < 3 {
		t.Fatalf("generator produced only %d tuples", len(tuples))
	}

	live := newUpdater(t, ds, cfg)
	st := mustOpen(t, dir, ds.Schema, Options{Fsync: SyncNever})
	if _, err := st.Recover(live); err != nil {
		t.Fatal(err)
	}
	live.AttachPersister(st)
	// One batch per tuple, all for one key: the entity's history is as
	// order-sensitive as it gets.
	for i := range tuples {
		if _, _, err := live.Apply([]pipeline.Update{{Key: "solo", Tuples: tuples[i : i+1]}}); err != nil {
			t.Fatal(err)
		}
	}
	want := streamFingerprint(t, live)
	wantVersion := live.Version("solo")
	st.Close()

	rds, rcfg := restartDataset(t, 1)
	re := newUpdater(t, rds, rcfg)
	st2 := mustOpen(t, dir, rds.Schema, Options{})
	defer st2.Close()
	if _, err := st2.Recover(re); err != nil {
		t.Fatal(err)
	}
	if got := re.Version("solo"); got != wantVersion {
		t.Fatalf("recovered version %d, want %d — batches merged or reordered", got, wantVersion)
	}
	diffStreams(t, "same-key ordering", streamFingerprint(t, re), want)
	// Byte-level check that tuple order survived, not just verdicts.
	reKeys, reRes, _, err := re.Snapshot()
	if err != nil || len(reKeys) != 1 {
		t.Fatalf("snapshot: %v (%d keys)", err, len(reKeys))
	}
	for i, tp := range reRes[0].Instance.Tuples() {
		if tp.Key() != tuples[i].Key() {
			t.Fatalf("recovered tuple %d is %s, want %s", i, tp, tuples[i])
		}
	}
}

// TestRecoveryReplaysFailedAbsorption logs a batch that FAILS
// absorption (the MaxEntityTuples bound) between two good ones and
// proves replay re-fails it identically: the recovered entity holds
// exactly the tuples the live one did.
func TestRecoveryReplaysFailedAbsorption(t *testing.T) {
	ds, cfg, _ := testWaves(t, 1)
	cfg.MaxEntityTuples = 3
	dir := t.TempDir()
	tuples := ds.Entities[0].Instance.Tuples()
	if len(tuples) < 4 {
		t.Fatalf("generator produced only %d tuples", len(tuples))
	}

	live := newUpdater(t, ds, cfg)
	st := mustOpen(t, dir, ds.Schema, Options{Fsync: SyncNever})
	if _, err := st.Recover(live); err != nil {
		t.Fatal(err)
	}
	live.AttachPersister(st)

	apply := func(n int) pipeline.Result {
		res, _, err := live.Apply([]pipeline.Update{{Key: "solo", Tuples: tuples[:n]}})
		if err != nil {
			t.Fatal(err)
		}
		return res[0]
	}
	if r := apply(2); r.Err != nil { // 2 tuples: fits
		t.Fatalf("first batch failed: %v", r.Err)
	}
	if r := apply(2); r.Err == nil || r.Deduction != nil { // 2+2 > 3: absorb fails
		t.Fatalf("over-bound batch did not fail absorption: err=%v", r.Err)
	} else if r.Version != 0 {
		t.Fatalf("failed absorption moved the version to %d", r.Version)
	}
	if r := apply(1); r.Err != nil { // 2+1 = 3: fits again
		t.Fatalf("third batch failed: %v", r.Err)
	}
	if got := st.Stats().LastSeq; got != 3 {
		t.Fatalf("the failed batch must be LOGGED too (lastSeq %d, want 3)", got)
	}
	want := streamFingerprint(t, live)
	st.Close()

	rds, rcfg := restartDataset(t, 1)
	rcfg.MaxEntityTuples = 3
	re := newUpdater(t, rds, rcfg)
	st2 := mustOpen(t, dir, rds.Schema, Options{})
	defer st2.Close()
	rs, err := st2.Recover(re)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Batches != 3 {
		t.Fatalf("replayed %d batches, want 3 (failed one included)", rs.Batches)
	}
	diffStreams(t, "failed-absorption replay", streamFingerprint(t, re), want)
	_, res, _, err := re.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].Instance.Size(); got != 3 {
		t.Fatalf("recovered entity holds %d tuples, want 3 — the failed batch replayed as applied", got)
	}
}

// TestRecoverDemandsFreshUpdater pins the misuse guard: recovery into
// a store that already absorbed evidence must refuse.
func TestRecoverDemandsFreshUpdater(t *testing.T) {
	ds, cfg, waves := testWaves(t, 2)
	u := newUpdater(t, ds, cfg)
	applyAll(t, u, waves[:1])
	st := mustOpen(t, t.TempDir(), ds.Schema, Options{})
	defer st.Close()
	if _, err := st.Recover(u); err == nil {
		t.Fatal("recovered into a non-empty updater")
	}
}

// TestPersisterRejectionAppliesNothing pins log-then-apply: a batch
// the persister rejects (foreign-schema tuple) changes no entity and
// registers no key, even though other updates in it were fine.
func TestPersisterRejectionAppliesNothing(t *testing.T) {
	ds, cfg, _ := testWaves(t, 1)
	u := newUpdater(t, ds, cfg)
	st := mustOpen(t, t.TempDir(), ds.Schema, Options{})
	defer st.Close()
	if _, err := st.Recover(u); err != nil {
		t.Fatal(err)
	}
	u.AttachPersister(st)
	twin := model.MustSchema(ds.Schema.Name(), ds.Schema.Attrs()...)
	_, _, err := u.Apply([]pipeline.Update{
		{Key: "good", Tuples: ds.Entities[0].Instance.Tuples()[:1]},
		{Key: "bad", Tuples: []*model.Tuple{model.NewTuple(twin)}},
	})
	if err == nil {
		t.Fatal("batch with an un-loggable tuple was applied")
	}
	if u.Len() != 0 {
		t.Fatalf("rejected batch created %d entities", u.Len())
	}
	if got := st.Stats().LastSeq; got != 0 {
		t.Fatalf("rejected batch was logged (lastSeq %d)", got)
	}
}

// TestRecoverReadsOldSnapshotLayout: a snapshot whose body carries a
// full dictionary section — the layout of stores whose value IDs were
// global — recovers to the same stream as the snapshot written now,
// whose dictionary section is empty.
func TestRecoverReadsOldSnapshotLayout(t *testing.T) {
	ds, cfg, waves := testWaves(t, 8)
	dir := t.TempDir()
	live := newUpdater(t, ds, cfg)
	st := mustOpen(t, dir, ds.Schema, Options{Fsync: SyncNever})
	if _, err := st.Recover(live); err != nil {
		t.Fatal(err)
	}
	live.AttachPersister(st)
	applyAll(t, live, waves[:2])
	if _, err := st.Checkpoint(live); err != nil {
		t.Fatal(err)
	}
	applyAll(t, live, waves[2:])
	want := streamFingerprint(t, live)
	st.Close()

	seq, body := readSnapshotFile(t, dir)
	head := len(appendFrame(nil, encodeSchema(ds.Schema)))
	if nd, n := binary.Uvarint(body[head:]); nd != 1 || n != 1 {
		t.Fatalf("new snapshot's dictionary section claims %d values, want none", nd)
	}
	old := oldLayoutBody(body, head)
	t.Logf("snapshot body: %d bytes, %d with a full dictionary section", len(body), len(old))
	oldDir := t.TempDir()
	for _, name := range []string{walName, snapName} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if name == snapName {
			b = append([]byte(snapMagic), appendFrame(nil, appendUvarint(nil, seq))...)
			b = appendFrame(b, old)
		}
		if err := os.WriteFile(filepath.Join(oldDir, name), b, 0o666); err != nil {
			t.Fatal(err)
		}
	}

	for _, d := range []string{dir, oldDir} {
		rds, rcfg := restartDataset(t, 8)
		re := newUpdater(t, rds, rcfg)
		st2 := mustOpen(t, d, rds.Schema, Options{})
		rs, err := st2.Recover(re)
		st2.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !rs.HadSnapshot || rs.SnapshotSeq != seq || rs.Batches != 1 {
			t.Fatalf("recovery stats %+v: want snapshot seq %d + 1 replayed batch", rs, seq)
		}
		diffStreams(t, "recovery from "+d, streamFingerprint(t, re), want)
	}
}

// readSnapshotFile returns the published snapshot's sequence number and
// body.
func readSnapshotFile(t *testing.T, dir string) (uint64, []byte) {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, snapName))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seq, err := readSnapshotSeq(f)
	if err != nil {
		t.Fatal(err)
	}
	body, err := readFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	return seq, body
}

// oldLayoutBody rewrites a snapshot body (schema frame of head bytes,
// empty dictionary section, entities) into the layout whose dictionary
// section listed every distinct value the snapshot's tuples carry, in
// first-appearance order.
func oldLayoutBody(body []byte, head int) []byte {
	entities := body[head+1:]
	d := &decoder{buf: entities}
	var vals []byte
	n, seen := uint64(1), map[string]bool{}
	ne, _ := d.uvarint()
	for i := uint64(0); i < ne; i++ {
		d.string()
		nt, _ := d.uvarint()
		for j := uint64(0); j < nt; j++ {
			arity, _ := d.uvarint()
			for a := uint64(0); a < arity; a++ {
				v, _ := d.value()
				if !v.IsNull() && !seen[v.Key()] {
					seen[v.Key()] = true
					vals = appendValue(vals, v)
					n++
				}
			}
		}
	}
	out := append([]byte(nil), body[:head]...)
	out = appendUvarint(out, n)
	out = append(out, vals...)
	return append(out, entities...)
}
