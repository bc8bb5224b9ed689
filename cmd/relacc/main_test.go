package main

import (
	"bytes"
	"compress/gzip"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/csvio"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/ruledsl"
)

// bin is the relacc binary the CLI tests drive, built once per test
// run on first use.
var bin struct {
	once sync.Once
	dir  string
	path string
	err  error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if bin.dir != "" {
		os.RemoveAll(bin.dir)
	}
	os.Exit(code)
}

// relaccBinary builds the command under test once and returns its path.
func relaccBinary(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin.once.Do(func() {
		if bin.dir, bin.err = os.MkdirTemp("", "relacc-cli-"); bin.err != nil {
			return
		}
		bin.path = filepath.Join(bin.dir, "relacc")
		if out, err := exec.Command("go", "build", "-o", bin.path, ".").CombinedOutput(); err != nil {
			bin.err = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if bin.err != nil {
		t.Fatal(bin.err)
	}
	return bin.path
}

// relacc runs the binary and returns its combined output.
func relacc(t *testing.T, args ...string) (string, error) {
	t.Helper()
	out, err := exec.Command(relaccBinary(t), args...).CombinedOutput()
	return string(out), err
}

// TestAtomicWrite pins the temp-file-plus-rename mechanism the -o paths
// rely on: success replaces the destination completely, failure leaves
// the previous content byte-identical, and neither path strands a temp
// file next to the output.
func TestAtomicWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.csv")
	if err := os.WriteFile(path, []byte("old content\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	if err := atomicWrite(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "new content\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new content\n" {
		t.Fatalf("after success: %q", got)
	}

	// A writer that emits half the output and then fails models the
	// truncated-CSV bug: the destination must keep the SUCCESSFUL run's
	// content, not the torn prefix.
	boom := errors.New("boom")
	err = atomicWrite(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, "torn pre"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new content\n" {
		t.Fatalf("failed write touched the destination: %q", got)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "out.csv" {
			t.Fatalf("stranded temp file %q", e.Name())
		}
	}
}

// TestAtomicWriteBareFilename: a destination with no directory part
// (`-o fused.csv`, as the README shows) must stage its temp file in
// the CURRENT directory, not os.TempDir — renaming out of a tmpfs
// /tmp would fail cross-device.
func TestAtomicWriteBareFilename(t *testing.T) {
	dir := t.TempDir()
	// os.Chdir + restore rather than t.Chdir: CI builds at the go.mod
	// language version (1.22), which predates testing.T.Chdir.
	prev, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(prev) })
	if err = atomicWrite("out.csv", func(w io.Writer) error {
		_, err := io.WriteString(w, "bare\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "out.csv")); err != nil || string(got) != "bare\n" {
		t.Fatalf("bare-filename write: %q, %v", got, err)
	}
	// A fresh destination gets os.Create's mode: 0666 through the
	// process umask — neither CreateTemp's 0600 nor an umask-ignoring
	// blanket 0644.
	um := processUmask()
	st, err := os.Stat(filepath.Join(dir, "out.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if want := os.FileMode(0o666) &^ os.FileMode(um); st.Mode().Perm() != want {
		t.Fatalf("fresh output mode = %v, want %v (umask %04o)", st.Mode().Perm(), want, um)
	}
}

// TestBatchWritesSettledCSV drives the real binary end to end: a small
// relation is grouped by id, deduced, and -o must hold the settled
// targets with no temp droppings left behind.
func TestBatchWritesSettledCSV(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "relation.csv")
	rules := filepath.Join(dir, "rules.txt")
	out := filepath.Join(dir, "settled.csv")
	// Two entities: m1 has conflicting rnds/jersey settled by the rules
	// (higher rnds is more current and carries the jersey number); m2 is
	// a singleton and settles trivially.
	if err := os.WriteFile(data, []byte(
		"id,league,rnds,jersey\n"+
			"m1,east,30,45\n"+
			"m1,east,80,23\n"+
			"m2,west,10,9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(rules, []byte(
		"phi1: t1[league] = t2[league] , t1[rnds] < t2[rnds] -> t1 <= t2 @ rnds\n"+
			"phi2: t1 < t2 @ rnds -> t1 <= t2 @ jersey\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	outText, err := relacc(t, "batch", "-data", data, "-rules", rules, "-by", "id", "-o", out)
	if err != nil {
		t.Fatalf("relacc batch: %v\n%s", err, outText)
	}
	if !strings.Contains(outText, "settled targets") {
		t.Fatalf("unexpected output:\n%s", outText)
	}
	content, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(content)), "\n")
	if len(lines) != 3 { // header + one settled target per entity
		t.Fatalf("settled CSV holds %d lines:\n%s", len(lines), content)
	}
	if lines[0] != "id,league,rnds,jersey" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(string(content), "m1,east,80,23") {
		t.Fatalf("m1 not settled on the more accurate tuple:\n%s", content)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("stranded temp file %q", e.Name())
		}
	}
}

// medFiles is a small generated Med relation written three ways — sorted
// (each entity's rows contiguous), shuffled, and split per entity into
// a base file (its first rows) and a delta file (the rest) — with its
// master relation and rules. shuffledDelta holds the delta's rows
// shuffled, and union the base's rows followed by shuffledDelta's: the
// relation an append of shuffledDelta onto base accumulates.
type medFiles struct {
	master, rules        string
	sorted, shuffled     string
	base, delta          string
	shuffledDelta, union string
}

func writeMed(t *testing.T) medFiles {
	t.Helper()
	cfg := gen.MedConfig()
	cfg.NumEntities = 40
	ds := gen.Generate(cfg)
	dir := t.TempDir()
	f := medFiles{
		master:   filepath.Join(dir, "master.csv"),
		rules:    filepath.Join(dir, "rules.txt"),
		sorted:   filepath.Join(dir, "sorted.csv"),
		shuffled: filepath.Join(dir, "shuffled.csv"),
		base:     filepath.Join(dir, "base.csv"),
		delta:    filepath.Join(dir, "delta.csv"),

		shuffledDelta: filepath.Join(dir, "shuffled-delta.csv"),
		union:         filepath.Join(dir, "union.csv"),
	}
	var all, base, delta []*model.Tuple
	for _, e := range ds.Entities {
		ts := e.Instance.Tuples()
		cut := (len(ts) + 1) / 2
		all = append(all, ts...)
		base = append(base, ts[:cut]...)
		delta = append(delta, ts[cut:]...)
	}
	shuffle := func(ts []*model.Tuple) []*model.Tuple {
		out := append([]*model.Tuple(nil), ts...)
		rand.New(rand.NewSource(7)).Shuffle(len(out), func(i, j int) {
			out[i], out[j] = out[j], out[i]
		})
		return out
	}
	shuffledDelta := shuffle(delta)
	writeCSV(t, f.master, ds.Master.Schema(), ds.Master.Tuples())
	writeCSV(t, f.sorted, ds.Schema, all)
	writeCSV(t, f.shuffled, ds.Schema, shuffle(all))
	writeCSV(t, f.base, ds.Schema, base)
	writeCSV(t, f.delta, ds.Schema, delta)
	writeCSV(t, f.shuffledDelta, ds.Schema, shuffledDelta)
	writeCSV(t, f.union, ds.Schema, append(append([]*model.Tuple(nil), base...), shuffledDelta...))
	if err := os.WriteFile(f.rules, []byte(ruledsl.Format(ds.Rules.Rules())), 0o644); err != nil {
		t.Fatal(err)
	}
	return f
}

func writeCSV(t *testing.T, path string, s *model.Schema, tuples []*model.Tuple) {
	t.Helper()
	var b bytes.Buffer
	if err := csvio.WriteRelation(&b, s, tuples); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// settledCSV runs one batch or append with -o and returns the -o bytes.
// Every run uses -window 2, so -stream on and a run-length auto run
// stream under a window far smaller than the relation.
func settledCSV(t *testing.T, f medFiles, args ...string) []byte {
	t.Helper()
	out := filepath.Join(t.TempDir(), "settled.csv")
	args = append(args, "-master", f.master, "-rules", f.rules, "-by", "name",
		"-workers", "2", "-topk", "1", "-window", "2", "-o", out)
	if text, err := relacc(t, args...); err != nil {
		t.Fatalf("relacc %s: %v\n%s", strings.Join(args, " "), err, text)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBatchProfiles: batch -cpuprofile and -memprofile each write a
// non-empty gzip stream (the pprof encoding) next to a normal run.
func TestBatchProfiles(t *testing.T) {
	f := writeMed(t)
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	if text, err := relacc(t, "batch", "-data", f.sorted, "-master", f.master, "-rules", f.rules,
		"-by", "name", "-cpuprofile", cpu, "-memprofile", mem); err != nil {
		t.Fatalf("relacc batch: %v\n%s", err, text)
	}
	for _, path := range []string{cpu, mem} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s is not a gzip stream: %v", filepath.Base(path), err)
		}
		body, err := io.ReadAll(zr)
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		if len(body) == 0 {
			t.Fatalf("%s holds an empty profile", filepath.Base(path))
		}
	}
}

// TestBatchOutputIndependentOfStream: -stream only sizes the grouping
// window, so batch -o holds the same bytes for every value on sorted
// input, and for off and auto (both unbounded there) on shuffled input.
func TestBatchOutputIndependentOfStream(t *testing.T) {
	f := writeMed(t)
	for _, in := range []struct {
		data  string
		modes []string
	}{
		{f.sorted, []string{"on", "off", "auto"}},
		{f.shuffled, []string{"off", "auto"}},
	} {
		var want []byte
		for _, mode := range in.modes {
			got := settledCSV(t, f, "batch", "-data", in.data, "-stream", mode)
			if want == nil {
				want = got
				if n := bytes.Count(got, []byte("\n")); n < 2 {
					t.Fatalf("%s: -o holds %d lines", in.data, n)
				}
				continue
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: -stream %s -o differs from -stream %s:\n%s\nvs\n%s",
					filepath.Base(in.data), mode, in.modes[0], got, want)
			}
		}
	}
}

// TestBatchWindowRefusal: shuffled input under -stream on -window 1
// refuses with the window error rather than split an entity, and the
// atomic -o writer publishes nothing.
func TestBatchWindowRefusal(t *testing.T) {
	f := writeMed(t)
	out := filepath.Join(t.TempDir(), "settled.csv")
	text, err := relacc(t, "batch", "-data", f.shuffled, "-master", f.master, "-rules", f.rules,
		"-by", "name", "-stream", "on", "-window", "1", "-o", out)
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("want exit status 1, got %v\n%s", err, text)
	}
	if !strings.Contains(text, "exceeds the streaming window") {
		t.Fatalf("no window error in output:\n%s", text)
	}
	entries, err := os.ReadDir(filepath.Dir(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("a refused run left %q behind", entries[0].Name())
	}
}

// TestAppendMatchesBatch: append -o over base and delta holds the same
// bytes as batch -o over the relation the two accumulate — for every
// -stream value on the sorted delta, for that delta with its columns
// reversed (they match the base's by name), and for off and auto (both
// unbounded there) on the shuffled delta.
func TestAppendMatchesBatch(t *testing.T) {
	f := writeMed(t)
	reversed := filepath.Join(t.TempDir(), "reversed.csv")
	rewriteCSV(t, f.delta, reversed, func(_ int, rec []string) []string {
		out := make([]string, len(rec))
		for i, cell := range rec {
			out[len(rec)-1-i] = cell
		}
		return out
	})
	for _, in := range []struct {
		delta, whole string
		modes        []string
	}{
		{f.delta, f.sorted, []string{"on", "off", "auto"}},
		{reversed, f.sorted, []string{"auto"}},
		{f.shuffledDelta, f.union, []string{"off", "auto"}},
	} {
		want := settledCSV(t, f, "batch", "-data", in.whole)
		for _, mode := range in.modes {
			got := settledCSV(t, f, "append", "-data", f.base, "-delta", in.delta, "-stream", mode)
			if !bytes.Equal(got, want) {
				t.Errorf("append -delta %s -stream %s -o differs from batch -o:\n%s\nvs\n%s",
					filepath.Base(in.delta), mode, got, want)
			}
		}
	}
}

// TestAppendDeltaRefusals: a delta naming a column the base lacks,
// lacking one the base has, routing a row by a null -by value, or too
// disordered for the window -stream on bounds it by exits 1 with the
// reason, and the existing -o file keeps its bytes.
func TestAppendDeltaRefusals(t *testing.T) {
	f := writeMed(t)
	schema, _, err := csvio.ReadRelationFile(f.delta)
	if err != nil {
		t.Fatal(err)
	}
	// byCol is the -by column; other is a column the edits may rename or
	// drop without touching the routing.
	byCol := schema.Index("name")
	other := (byCol + 1) % schema.Arity()
	edited := func(edit func(row int, rec []string) []string) string {
		path := filepath.Join(t.TempDir(), "delta.csv")
		rewriteCSV(t, f.delta, path, edit)
		return path
	}
	for _, tc := range []struct {
		name, want string
		args       []string
	}{
		{"unknown column", `column "bogus" is not in relation`, []string{"-delta", edited(func(row int, rec []string) []string {
			if row == 0 {
				rec[other] = "bogus"
			}
			return rec
		})}},
		{"missing column", "is missing from the header", []string{"-delta", edited(func(_ int, rec []string) []string {
			return append(rec[:other:other], rec[other+1:]...)
		})}},
		{"null -by value", "null name value", []string{"-delta", edited(func(row int, rec []string) []string {
			if row == 3 {
				rec[byCol] = ""
			}
			return rec
		})}},
		{"window", "exceeds the streaming window",
			[]string{"-delta", f.shuffledDelta, "-stream", "on", "-window", "1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const previous = "previous run's output\n"
			dir := t.TempDir()
			out := filepath.Join(dir, "settled.csv")
			writeFile(t, out, previous)
			text, err := relacc(t, append([]string{"append", "-data", f.base, "-master", f.master,
				"-rules", f.rules, "-by", "name", "-o", out}, tc.args...)...)
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("want exit status 1, got %v\n%s", err, text)
			}
			if !strings.Contains(text, tc.want) {
				t.Fatalf("output does not name the refusal %q:\n%s", tc.want, text)
			}
			if got, err := os.ReadFile(out); err != nil || string(got) != previous {
				t.Fatalf("a refused run touched -o: %q, %v", got, err)
			}
			if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
				t.Fatalf("a refused run left files beside -o: %v, %v", entries, err)
			}
		})
	}
}

// TestCheckRefusesUnknownCandidateColumn: a candidate column the
// instance schema lacks (a misspelt header) is refused by name; dropping
// it would let a candidate that fails the check pass it.
func TestCheckRefusesUnknownCandidateColumn(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "instance.csv")
	rules := filepath.Join(dir, "rules.txt")
	writeFile(t, data, "id,league,rnds,jersey\nm1,east,30,45\nm1,east,80,23\n")
	writeFile(t, rules, "phi1: t1[league] = t2[league] , t1[rnds] < t2[rnds] -> t1 <= t2 @ rnds\n"+
		"phi2: t1 < t2 @ rnds -> t1 <= t2 @ jersey\n")
	for _, tc := range []struct{ header, want string }{
		{"league", "candidate FAILS the chase check"},
		{"leauge", `candidate column "leauge" is not in the instance schema`},
	} {
		cand := filepath.Join(dir, tc.header+".csv")
		writeFile(t, cand, "id,"+tc.header+",rnds,jersey\nm1,west,80,23\n")
		text, err := relacc(t, "check", "-data", data, "-rules", rules, "-candidate", cand)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("header %s: want exit status 1, got %v\n%s", tc.header, err, text)
		}
		if !strings.Contains(text, tc.want) {
			t.Fatalf("header %s: output lacks %q:\n%s", tc.header, tc.want, text)
		}
	}
}

// rewriteCSV copies the CSV at src to dst, passing every record (row 0
// is the header) through edit.
func rewriteCSV(t *testing.T, src, dst string, edit func(row int, rec []string) []string) {
	t.Helper()
	in, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(bytes.NewReader(in)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	w := csv.NewWriter(&b)
	for i, rec := range recs {
		if err := w.Write(edit(i, rec)); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		t.Fatal(err)
	}
	writeFile(t, dst, b.String())
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
