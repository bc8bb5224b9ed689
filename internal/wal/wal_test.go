package wal

import (
	"bytes"
	"encoding/hex"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/rule"
)

// testSchema builds the small relation the log tests speak.
func testSchema(t *testing.T) *model.Schema {
	t.Helper()
	return model.MustSchema("people", "name", "city", "zip")
}

// up builds one single-tuple update for key with the given values.
func up(t *testing.T, s *model.Schema, key string, vals ...model.Value) pipeline.Update {
	t.Helper()
	return pipeline.Update{Key: key, Tuples: []*model.Tuple{model.MustTuple(s, vals...)}}
}

func mustOpen(t *testing.T, dir string, s *model.Schema, opts Options) *Store {
	t.Helper()
	st, err := Open(dir, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// logBatches reads every whole record of the store's log, the way
// Recover scans it.
func logBatches(t *testing.T, st *Store) []Batch {
	t.Helper()
	f, sc, err := st.scanFile(walName)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []Batch
	for b, ok := sc.next(); ok; b, ok = sc.next() {
		out = append(out, b)
	}
	return out
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{[]byte("alpha"), {}, bytes.Repeat([]byte{0xAB}, 3000)}
	var buf []byte
	for _, p := range payloads {
		buf = appendFrame(buf, p)
	}
	r := bytes.NewReader(buf)
	for i, want := range payloads {
		got, err := readFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %q, want %q", i, got, want)
		}
	}
	if _, err := readFrame(r); err != io.EOF {
		t.Fatalf("past the last frame: got %v, want io.EOF", err)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	s := testSchema(t)
	updates := []pipeline.Update{
		up(t, s, "a", model.S("ann"), model.S("nyc"), model.I(10001)),
		up(t, s, "b", model.NullValue(), model.F(2.5), model.B(true)),
		{Key: "c", Tuples: []*model.Tuple{
			model.MustTuple(s, model.S("cy"), model.NullValue(), model.NullValue()),
			model.MustTuple(s, model.S("cy"), model.S("sf"), model.I(94107)),
		}},
	}
	payload := encodeBatch(42, updates)
	got, err := decodeBatch(payload, s)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 42 || len(got.Updates) != len(updates) {
		t.Fatalf("decoded seq %d / %d updates, want 42 / %d", got.Seq, len(got.Updates), len(updates))
	}
	for i, u := range got.Updates {
		if u.Key != updates[i].Key || len(u.Tuples) != len(updates[i].Tuples) {
			t.Fatalf("update %d: key %q (%d tuples), want %q (%d)",
				i, u.Key, len(u.Tuples), updates[i].Key, len(updates[i].Tuples))
		}
		for j, tp := range u.Tuples {
			if tp.Schema() != s {
				t.Fatalf("update %d tuple %d decoded on the wrong schema", i, j)
			}
			if !tp.EqualTo(updates[i].Tuples[j]) {
				t.Fatalf("update %d tuple %d: got %s, want %s", i, j, tp, updates[i].Tuples[j])
			}
		}
	}
}

// TestWriteRecordIsABatchFrame: a record written from pre-serialized
// updates (a snapshot record) is byte for byte the framed encodeBatch
// payload a log append writes for the same updates.
func TestWriteRecordIsABatchFrame(t *testing.T) {
	s := testSchema(t)
	updates := []pipeline.Update{
		up(t, s, "a", model.S("ann"), model.NullValue(), model.I(10001)),
		up(t, s, "b", model.NullValue(), model.F(2.5), model.B(true)),
	}
	for _, ups := range [][]pipeline.Update{updates, nil} {
		var body []byte
		for _, u := range ups {
			body = appendUpdate(body, u.Key, u.Tuples)
		}
		var got bytes.Buffer
		if err := writeRecord(&got, 300, len(ups), body); err != nil {
			t.Fatal(err)
		}
		if want := appendFrame(nil, encodeBatch(300, ups)); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%d updates: writeRecord wrote %x, a log append %x", len(ups), got.Bytes(), want)
		}
	}
}

// TestLogBytes pins wal.log's on-disk layout: these two appends write
// exactly these bytes (magic, schema frame, two batch frames).
func TestLogBytes(t *testing.T) {
	const want = "52414357414c3031160000008fbcdc3e0670656f706c6503046e616d650463697479037a6970" +
		"120000000c863ea7010103616e6e01030103616e6e0002a29c01" +
		"26000000df9ed72d020203626f6201030103626f62030000000000000440040103616e6e01030001036e79630205"
	s := testSchema(t)
	dir := t.TempDir()
	st := mustOpen(t, dir, s, Options{})
	for _, batch := range [][]pipeline.Update{
		{up(t, s, "ann", model.S("ann"), model.NullValue(), model.I(10001))},
		{up(t, s, "bob", model.S("bob"), model.F(2.5), model.B(true)), up(t, s, "ann", model.NullValue(), model.S("nyc"), model.I(-3))},
	} {
		if _, err := st.LogApply(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(got) != want {
		t.Fatalf("wal.log is\n%x\nwant\n%s", got, want)
	}
}

// TestValueRoundTrip drives every value kind — the NaN Norm sentinel
// included — through the codec bit-for-bit.
func TestValueRoundTrip(t *testing.T) {
	nan := model.F(math.NaN()).Norm()
	vals := []model.Value{
		model.NullValue(), model.S(""), model.S("héllo\x00world"),
		model.I(0), model.I(-1 << 60), model.F(2.5), model.F(math.Inf(-1)),
		model.B(true), model.B(false), nan,
	}
	var b []byte
	for _, v := range vals {
		b = appendValue(b, v)
	}
	d := &decoder{buf: b}
	for i, want := range vals {
		got, err := d.value()
		if err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		if got.Key() != want.Key() {
			t.Fatalf("value %d: got %q, want %q", i, got.Key(), want.Key())
		}
	}
	if d.off != len(b) {
		t.Fatalf("decoder left %d bytes", len(b)-d.off)
	}
}

func TestAppendReopenResume(t *testing.T) {
	dir := t.TempDir()
	s := testSchema(t)
	st := mustOpen(t, dir, s, Options{})
	for i, name := range []string{"ann", "bob"} {
		seq, err := st.LogApply([]pipeline.Update{up(t, s, name, model.S(name), model.NullValue(), model.NullValue())})
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("append %d got seq %d", i, seq)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: sequence numbering must resume, not restart.
	st = mustOpen(t, dir, s, Options{})
	seq, err := st.LogApply([]pipeline.Update{up(t, s, "cy", model.S("cy"), model.NullValue(), model.NullValue())})
	if err != nil {
		t.Fatal(err)
	}
	if seq != 3 {
		t.Fatalf("post-reopen append got seq %d, want 3", seq)
	}
	batches := logBatches(t, st)
	if len(batches) != 3 {
		t.Fatalf("read %d batches, want 3", len(batches))
	}
	for i, b := range batches {
		if b.Seq != uint64(i+1) {
			t.Fatalf("batch %d carries seq %d", i, b.Seq)
		}
	}
	st.Close()
}

// TestTornTailDropped cuts the log at several distinct points inside
// its final record — mid-header, mid-payload, one byte short — and at
// a flipped payload bit, and proves every case drops exactly the last
// record: never a panic, never a partial batch, never an earlier one.
func TestTornTailDropped(t *testing.T) {
	s := testSchema(t)
	build := func(t *testing.T) (string, int64) {
		dir := t.TempDir()
		st := mustOpen(t, dir, s, Options{})
		var before int64
		for _, name := range []string{"ann", "bob", "cy"} {
			if name == "cy" {
				before = st.Stats().WALBytes
			}
			if _, err := st.LogApply([]pipeline.Update{up(t, s, name, model.S(name), model.S("nyc"), model.I(1))}); err != nil {
				t.Fatal(err)
			}
		}
		st.Close()
		return dir, before
	}

	check := func(t *testing.T, dir string) {
		st := mustOpen(t, dir, s, Options{})
		defer st.Close()
		batches := logBatches(t, st)
		if len(batches) != 2 {
			t.Fatalf("recovered %d batches, want the 2 whole ones", len(batches))
		}
		for i, b := range batches {
			if b.Seq != uint64(i+1) || len(b.Updates) != 1 {
				t.Fatalf("batch %d: seq %d with %d updates", i, b.Seq, len(b.Updates))
			}
		}
		// Appending must extend the truncated log, and the dropped
		// record's sequence number gets reused: it never happened.
		seq, err := st.LogApply([]pipeline.Update{up(t, s, "dee", model.S("dee"), model.NullValue(), model.NullValue())})
		if err != nil {
			t.Fatal(err)
		}
		if seq != 3 {
			t.Fatalf("append after torn tail got seq %d, want 3", seq)
		}
	}

	cuts := map[string]func(size, before int64) int64{
		"mid-header":     func(size, before int64) int64 { return before + 4 },
		"mid-payload":    func(size, before int64) int64 { return before + 8 + 2 },
		"one-byte-short": func(size, before int64) int64 { return size - 1 },
	}
	for name, cut := range cuts {
		t.Run(name, func(t *testing.T) {
			dir, before := build(t)
			path := filepath.Join(dir, walName)
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, cut(info.Size(), before)); err != nil {
				t.Fatal(err)
			}
			check(t, dir)
		})
	}

	t.Run("bit-flip", func(t *testing.T) {
		dir, before := build(t)
		path := filepath.Join(dir, walName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[before+8+1] ^= 0x40 // one payload bit of the last record
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
		check(t, dir)
	})

	t.Run("garbage-appended", func(t *testing.T) {
		dir, _ := build(t)
		f, err := os.OpenFile(filepath.Join(dir, walName), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.Write([]byte{0xFF, 0xFF, 0xFF, 0x7F, 1, 2, 3}) // absurd length prefix
		f.Close()
		st := mustOpen(t, dir, s, Options{})
		defer st.Close()
		batches := logBatches(t, st)
		if len(batches) != 3 { // all three records were whole here
			t.Fatalf("recovered %d batches, want 3", len(batches))
		}
	})
}

func TestOpenRejectsForeignFiles(t *testing.T) {
	s := testSchema(t)
	t.Run("not-a-log", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), []byte("definitely,not,a,log\n"), 0o666); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, s, Options{}); err == nil {
			t.Fatal("opened a non-log file as a WAL")
		}
	})
	t.Run("foreign-schema", func(t *testing.T) {
		dir := t.TempDir()
		mustOpen(t, dir, s, Options{}).Close()
		other := model.MustSchema("people", "name", "city") // same name, different arity
		if _, err := Open(dir, other, Options{}); err == nil {
			t.Fatal("opened a people(name,city,zip) log with schema people(name,city)")
		}
	})
}

func TestLogApplyRejectsForeignSchemaTuples(t *testing.T) {
	dir := t.TempDir()
	s := testSchema(t)
	st := mustOpen(t, dir, s, Options{})
	defer st.Close()
	// Structurally identical but a DIFFERENT pointer: live Apply would
	// fail these tuples per entity, but a decoded replay would rebuild
	// them on the store schema and succeed — divergence. The store must
	// reject the batch outright.
	twin := model.MustSchema("people", "name", "city", "zip")
	_, err := st.LogApply([]pipeline.Update{up(t, twin, "x", model.S("x"), model.NullValue(), model.NullValue())})
	if err == nil {
		t.Fatal("logged a tuple of a foreign schema pointer")
	}
	if _, err := st.LogApply([]pipeline.Update{{Key: "y", Tuples: []*model.Tuple{nil}}}); err == nil {
		t.Fatal("logged a nil tuple")
	}
	if got := st.Stats().LastSeq; got != 0 {
		t.Fatalf("rejected batches consumed sequence numbers: LastSeq %d", got)
	}
}

func TestSyncPolicies(t *testing.T) {
	s := testSchema(t)
	for _, pol := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		t.Run(pol.String(), func(t *testing.T) {
			st := mustOpen(t, t.TempDir(), s, Options{Fsync: pol, Interval: 5 * time.Millisecond})
			if _, err := st.LogApply([]pipeline.Update{up(t, s, "a", model.S("a"), model.NullValue(), model.NullValue())}); err != nil {
				t.Fatal(err)
			}
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
			got := st.Stats()
			if got.Fsync != pol || got.LastSeq != 1 || got.WALBytes == 0 || got.LastSync.IsZero() {
				t.Fatalf("stats %+v look wrong for policy %s", got, pol)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			// Close is idempotent enough to not explode a second time.
			st.Close()
		})
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"always", SyncAlways}, {"interval", SyncInterval}, {"never", SyncNever}} {
		got, err := ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("parsed an unknown policy")
	}
}

// peopleUpdater is a rule-free update stream over the test schema.
func peopleUpdater(t *testing.T, s *model.Schema) *pipeline.Updater {
	t.Helper()
	u, err := pipeline.NewUpdater(s, pipeline.Config{Rules: rule.MustSet(s, nil)})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// applyName applies one single-tuple batch for key: name in the first
// column, nulls elsewhere.
func applyName(t *testing.T, u *pipeline.Updater, key string, name model.Value) error {
	t.Helper()
	_, _, err := u.Apply([]pipeline.Update{up(t, u.Schema(), key, name, model.NullValue(), model.NullValue())})
	return err
}

// recoveredKeys reopens the store in dir and returns the keys a fresh
// updater holds after recovery.
func recoveredKeys(t *testing.T, dir string, s *model.Schema) []string {
	t.Helper()
	st := mustOpen(t, dir, s, Options{})
	defer st.Close()
	u := peopleUpdater(t, s)
	if _, err := st.Recover(u); err != nil {
		t.Fatal(err)
	}
	return u.Keys()
}

// hugeValue is one value whose encoding alone exceeds maxRecord.
func hugeValue() model.Value { return model.S(strings.Repeat("x", maxRecord+1<<20)) }

// TestApplyRefusesOversizedBatch: a batch whose frame would exceed
// maxRecord is refused before anything is written, so it is applied
// nowhere and the acknowledged batches around it survive a reopen
// (written, it would read back as a torn tail and take them with it).
func TestApplyRefusesOversizedBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("a value past maxRecord is too large under race instrumentation")
	}
	s := testSchema(t)
	dir := t.TempDir()
	u := peopleUpdater(t, s)
	st := mustOpen(t, dir, s, Options{})
	u.AttachPersister(st)
	if err := applyName(t, u, "a", model.S("ann")); err != nil {
		t.Fatal(err)
	}
	if err := applyName(t, u, "big", hugeValue()); err == nil {
		t.Fatal("a batch past the frame limit was acknowledged")
	}
	if err := applyName(t, u, "b", model.S("bob")); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b"}
	if got := u.Keys(); !slices.Equal(got, want) {
		t.Fatalf("live keys %v, want %v", got, want)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if got := recoveredKeys(t, dir, s); !slices.Equal(got, want) {
		t.Fatalf("recovered keys %v, want %v", got, want)
	}
}

// TestWriteSnapshotRefusesOversizedBody: a snapshot holding an entity
// larger than one frame (maxRecord) is refused and leaves no
// snapshot.tmp behind, so the published snapshot and the log stay as
// they were (published, it would truncate the log and then be refused
// by Recover).
func TestWriteSnapshotRefusesOversizedBody(t *testing.T) {
	if raceEnabled {
		t.Skip("a value past maxRecord is too large under race instrumentation")
	}
	s := testSchema(t)
	dir := t.TempDir()
	u := peopleUpdater(t, s)
	st := mustOpen(t, dir, s, Options{})
	u.AttachPersister(st)
	if err := applyName(t, u, "a", model.S("ann")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Checkpoint(u); err != nil {
		t.Fatal(err)
	}
	if err := applyName(t, u, "b", model.S("bob")); err != nil {
		t.Fatal(err)
	}
	published, err := os.ReadFile(filepath.Join(dir, snapName))
	if err != nil {
		t.Fatal(err)
	}
	big := model.NewEntityInstance(s)
	big.MustAdd(model.MustTuple(s, hugeValue(), model.NullValue(), model.NullValue()))
	if _, err := st.writeSnapshot([]string{"big"}, []*model.EntityInstance{big}); err == nil {
		t.Fatal("a snapshot entity past the frame limit was accepted")
	}
	if _, err := os.Stat(filepath.Join(dir, tmpName)); !os.IsNotExist(err) {
		t.Fatalf("refused snapshot left %s behind (stat: %v)", tmpName, err)
	}
	if after, err := os.ReadFile(filepath.Join(dir, snapName)); err != nil || !bytes.Equal(after, published) {
		t.Fatalf("refused snapshot changed the published one (read error %v)", err)
	}
	if got := st.Stats(); got.LastSeq != 2 || got.SnapshotSeq != 1 {
		t.Fatalf("after the refusal: last seq %d, snapshot seq %d; want 2 and 1", got.LastSeq, got.SnapshotSeq)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := recoveredKeys(t, dir, s), []string{"a", "b"}; !slices.Equal(got, want) {
		t.Fatalf("recovered keys %v, want %v", got, want)
	}
}

// TestOpenRefusesOldSnapshotLayout: a snapshot.dat in the retired
// single-frame layout (magic RACSNAP1, a sequence-number frame, then
// one frame holding the schema, a dictionary section and every entity)
// fails Open with an error that names the layout, and Open changes
// nothing in the directory: not the snapshot, not the log's torn tail,
// not a leftover snapshot.tmp.
func TestOpenRefusesOldSnapshotLayout(t *testing.T) {
	s := testSchema(t)
	dir := t.TempDir()
	st := mustOpen(t, dir, s, Options{})
	ann := up(t, s, "ann", model.S("ann"), model.NullValue(), model.NullValue())
	if _, err := st.LogApply([]pipeline.Update{ann}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	body := appendFrame(nil, encodeSchema(s))
	body = appendUvarint(body, 1) // an empty dictionary section
	body = appendUvarint(body, 1) // one entity
	body = appendUpdate(body, ann.Key, ann.Tuples)
	old := append([]byte(oldSnapMagic), appendFrame(nil, appendUvarint(nil, 1))...)
	if err := os.WriteFile(filepath.Join(dir, snapName), appendFrame(old, body), 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, tmpName), []byte("an interrupted checkpoint"), 0o666); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{9, 0, 0}) // a torn tail Open would otherwise truncate
	f.Close()

	before := dirBytes(t, dir)
	_, err = Open(dir, s, Options{})
	if err == nil || !strings.Contains(err.Error(), "single-frame") || !strings.Contains(err.Error(), oldSnapMagic) {
		t.Fatalf("Open on an old-layout snapshot: %v; want an error naming the layout", err)
	}
	if after := dirBytes(t, dir); !maps.Equal(after, before) {
		t.Fatalf("the refused Open changed the directory: %d files before, %d after", len(before), len(after))
	}
}

// dirBytes maps each file in dir to its contents.
func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	return out
}

// multiRecordSnapshot checkpoints three entities of 600 KB each, so the
// published snapshot is three entity records (two would pass
// snapshotBudget) and the closing one. It returns the store directory
// and the offset just past each record.
func multiRecordSnapshot(t *testing.T, s *model.Schema) (string, []int64) {
	t.Helper()
	dir := t.TempDir()
	u := peopleUpdater(t, s)
	st := mustOpen(t, dir, s, Options{Fsync: SyncNever})
	u.AttachPersister(st)
	for _, key := range []string{"a", "b", "c"} {
		if err := applyName(t, u, key, model.S(strings.Repeat(key, 600<<10))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Checkpoint(u); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	f, sc, err := st.scanFile(snapName)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var ends []int64
	for b, ok := sc.next(); ok; b, ok = sc.next() {
		if b.Seq != 3 {
			t.Fatalf("snapshot record at seq %d, want 3", b.Seq)
		}
		ends = append(ends, sc.off)
	}
	if sc.err != io.EOF || len(ends) != 4 {
		t.Fatalf("snapshot holds %d records (scan ended with %v), want 3 entity records and the closing one", len(ends), sc.err)
	}
	return dir, ends
}

// TestRecoverRefusesDamagedSnapshot: a snapshot that spans several
// records recovers whole, and one that lacks its closing record or
// holds a record that fails its CRC fails recovery instead of
// restoring part of the store. A damaged first record already fails
// Open, which reads the snapshot's sequence number from it.
func TestRecoverRefusesDamagedSnapshot(t *testing.T) {
	s := testSchema(t)
	dir, ends := multiRecordSnapshot(t, s)
	if got, want := recoveredKeys(t, dir, s), []string{"a", "b", "c"}; !slices.Equal(got, want) {
		t.Fatalf("recovered keys %v, want %v", got, want)
	}
	damaged := func(t *testing.T, damage func([]byte) []byte) string {
		t.Helper()
		d := t.TempDir()
		for name, b := range dirBytes(t, dir) {
			if name == snapName {
				b = string(damage([]byte(b)))
			}
			if err := os.WriteFile(filepath.Join(d, name), []byte(b), 0o666); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	cases := map[string]func([]byte) []byte{
		"no-closing-record": func(b []byte) []byte { return b[:ends[2]] },
		"cut-mid-record":    func(b []byte) []byte { return b[:ends[1]+100] },
		"middle-record-crc": func(b []byte) []byte { b[ends[0]+frameHeader+10] ^= 1; return b },
	}
	for name, damage := range cases {
		t.Run(name, func(t *testing.T) {
			st := mustOpen(t, damaged(t, damage), s, Options{})
			defer st.Close()
			if rs, err := st.Recover(peopleUpdater(t, s)); err == nil {
				t.Fatalf("recovered %+v from a damaged snapshot", rs)
			}
		})
	}
	t.Run("first-record-crc", func(t *testing.T) {
		d := damaged(t, func(b []byte) []byte { b[len(logHeader(s))+frameHeader+10] ^= 1; return b })
		if _, err := Open(d, s, Options{}); err == nil {
			t.Fatal("opened a store whose snapshot's first record fails its CRC")
		}
	})
}

// TestRecoverRefusesUnabsorbableSnapshot: a snapshotted entity was
// committed state, so an updater that fails to absorb it (here, one
// whose MaxEntityTuples is below the entity's size) fails recovery
// rather than dropping the entity.
func TestRecoverRefusesUnabsorbableSnapshot(t *testing.T) {
	s := testSchema(t)
	dir := t.TempDir()
	u := peopleUpdater(t, s)
	st := mustOpen(t, dir, s, Options{})
	u.AttachPersister(st)
	for _, city := range []string{"nyc", "sf", "la"} {
		if err := applyName(t, u, "a", model.S(city)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Checkpoint(u); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	bounded, err := pipeline.NewUpdater(s, pipeline.Config{Rules: rule.MustSet(s, nil), MaxEntityTuples: 2})
	if err != nil {
		t.Fatal(err)
	}
	st2 := mustOpen(t, dir, s, Options{})
	defer st2.Close()
	if rs, err := st2.Recover(bounded); err == nil {
		t.Fatalf("recovered %+v into an updater that cannot absorb the snapshot's 3-tuple entity", rs)
	}
}
