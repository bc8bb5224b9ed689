// Command relacc runs relative-accuracy deduction on CSV data:
//
//	relacc deduce -data instance.csv [-master master.csv] -rules rules.txt
//	relacc topk   -data instance.csv [-master master.csv] -rules rules.txt -k 10 [-algo topkct|rankjoin|topkcth]
//	relacc check  -data instance.csv [-master master.csv] -rules rules.txt -candidate cand.csv
//	relacc rules  -rules rules.txt -data instance.csv [-master master.csv]
//	relacc batch  -data relation.csv [-master master.csv] -rules rules.txt [-by id | -key a,b] [-workers N] [-topk K] [-algo ...] [-o fused.csv] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	relacc append -data base.csv -delta delta.csv [-master master.csv] -rules rules.txt -by id [-workers N] [-topk K] [-algo ...] [-o fused.csv] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// deduce/topk/check operate on the tuples of ONE entity; batch takes a
// whole relation of many entities, groups it into entity instances —
// by exact match on an identifier column (-by) or by similarity-based
// entity resolution on key attributes (-key) — and runs the deduce →
// top-k pipeline over all of them on a worker pool, printing one
// verdict per entity plus a summary. -o writes the settled targets
// (pipeline.Result.Settled: deduced complete, or filled from the best
// candidate) as CSV.
//
// Every -by relation streams: rows decode one at a time, entities seal
// as the grouping window retires them, and the worker pool is fed with
// backpressure. -stream on|off|auto only sizes that window: on bounds it
// at -window N open entities, so memory is proportional to the window,
// never to the relation; off leaves it unbounded, which groups any row
// order at the memory cost of holding the relation; auto (the default)
// bounds it when the input arrives in contiguous per-key runs (sorted
// input does) and leaves it unbounded otherwise. The output never
// depends on the window: input too disordered for a bounded window
// fails rather than split an entity. -key grouping resolves the whole
// relation first, then runs the same sink and -o writer.
//
// append is the incremental face of batch: the base relation streams
// into live per-entity sessions and is deduced once, then the delta
// relation streams through the same chain — its tuples are grouped by
// the -by identifier and routed into the live entities, and only the
// touched entities are re-deduced, through delta instantiation rather
// than a rebuild — printing one re-deduced verdict per touched entity
// as its batch applies. The delta CSV must carry the base's columns, in
// any order; an unknown or a missing column is refused by name. The
// delta's grouping window follows the same -stream/-window policy as
// the base's (auto probes each file separately), so -stream on bounds
// the delta's window too: a delta too disordered for -window fails with
// the window error. -o writes the settled targets
// (pipeline.Result.Settled) of the final state of every entity.
//
// batch and append profile themselves on request: -cpuprofile writes a
// CPU profile of the whole run and -memprofile the allocation profile
// (runtime/pprof's "allocs": every sampled allocation since the process
// started, plus what is live at exit), both readable by go tool pprof.
//
// The optional master CSV holds master data; the rule file uses the
// textual rule language (see internal/ruledsl):
//
//	phi1: t1[league] = t2[league] , t1[rnds] < t2[rnds] -> t1 <= t2 @ rnds
//	phi6: master te[FN] = tm[FN] , tm[season] = "1994-95" -> te[league] = tm[league]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/csvio"
	"repro/internal/er"
	"repro/internal/ingest"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/rule"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	dataPath := fs.String("data", "", "entity instance CSV (required)")
	masterPath := fs.String("master", "", "master relation CSV")
	rulesPath := fs.String("rules", "", "accuracy rule file (required)")
	k := fs.Int("k", 10, "number of candidate targets (topk)")
	algo := fs.String("algo", "topkct", "top-k algorithm: topkct, rankjoin or topkcth")
	candPath := fs.String("candidate", "", "candidate tuple CSV (check)")
	deltaPath := fs.String("delta", "", "append: delta relation CSV (the columns of -data, in any order)")
	by := fs.String("by", "", "batch/append: group entities by exact match on this column")
	key := fs.String("key", "", "batch: comma-separated key attributes for similarity-based grouping")
	threshold := fs.Float64("threshold", 0, "batch: similarity threshold for -key grouping (0 = 0.85)")
	workers := fs.Int("workers", 0, "batch: concurrent entities (0 = GOMAXPROCS)")
	topK := fs.Int("topk", 0, "batch: candidates per incomplete entity (0 = deduce only)")
	outPath := fs.String("o", "", "batch: write settled targets to this CSV")
	verbose := fs.Bool("v", false, "batch: print every entity (default: only unsettled ones)")
	stream := fs.String("stream", "auto", "batch/append: -by grouping window: on (-window), off (unbounded), or auto (-window when -by input is run-length sorted, else unbounded)")
	window := fs.Int("window", 1024, "batch/append: max open entities in the streaming group window (0 = unbounded)")
	cpuProfile := fs.String("cpuprofile", "", "batch/append: write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "batch/append: write the allocation profile to this file at exit")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}

	switch cmd {
	case "deduce", "topk", "check", "rules":
		// All flags parse on one shared FlagSet; reject the other
		// mode's flags loudly instead of silently ignoring them.
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "by", "key", "threshold", "workers", "topk", "o", "v", "delta", "stream", "window", "cpuprofile", "memprofile":
				fatal(fmt.Errorf("flag -%s applies to batch/append; %s uses -k", f.Name, cmd))
			}
		})
	case "batch":
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "k", "candidate", "delta":
				fatal(fmt.Errorf("flag -%s does not apply to batch; batch uses -topk and -workers", f.Name))
			}
		})
		stop := startProfiles(*cpuProfile, *memProfile)
		runBatch(batchArgs{
			data: *dataPath, master: *masterPath, rules: *rulesPath,
			by: *by, key: *key, threshold: *threshold,
			workers: *workers, topK: *topK, algo: *algo,
			out: *outPath, verbose: *verbose,
			stream: *stream, window: *window,
		})
		stop()
		return
	case "append":
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "k", "candidate", "key", "threshold":
				fatal(fmt.Errorf("flag -%s does not apply to append; append routes deltas by -by", f.Name))
			}
		})
		stop := startProfiles(*cpuProfile, *memProfile)
		runAppend(appendArgs{
			data: *dataPath, delta: *deltaPath, master: *masterPath, rules: *rulesPath,
			by: *by, workers: *workers, topK: *topK, algo: *algo,
			out: *outPath, verbose: *verbose,
			stream: *stream, window: *window,
		})
		stop()
		return
	default:
		usage()
		os.Exit(2)
	}
	if *dataPath == "" || *rulesPath == "" {
		fmt.Fprintln(os.Stderr, "relacc: -data and -rules are required")
		os.Exit(2)
	}

	sess, ie, rs, err := load(*dataPath, *masterPath, *rulesPath)
	if err != nil {
		fatal(err)
	}

	switch cmd {
	case "rules":
		fmt.Printf("%d rules validated\n%s", rs.Len(), core.FormatRules(rs))
		return
	case "deduce":
		res := sess.Deduce()
		if !res.CR {
			fmt.Printf("specification is NOT Church-Rosser: %s\n", res.Conflict)
			os.Exit(1)
		}
		fmt.Println("specification is Church-Rosser")
		printTarget(ie.Schema(), res.Target)
	case "topk":
		a, err := pipeline.ParseAlgorithm(*algo)
		if err != nil {
			fatal(err)
		}
		res := sess.Deduce()
		if !res.CR {
			fatal(fmt.Errorf("specification is not Church-Rosser: %s", res.Conflict))
		}
		if res.Target.Complete() {
			fmt.Println("deduced target is already complete:")
			printTarget(ie.Schema(), res.Target)
			return
		}
		fmt.Println("deduced (incomplete) target:")
		printTarget(ie.Schema(), res.Target)
		cands, stats, err := sess.TopK(core.Preference{K: *k}, a)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("top-%d candidate targets (%d checks):\n", *k, stats.Checks)
		for i, c := range cands {
			fmt.Printf("%2d. score=%.1f %s\n", i+1, c.Score, c.Tuple)
		}
	case "check":
		if *candPath == "" {
			fatal(fmt.Errorf("-candidate is required for check"))
		}
		_, tuples, err := csvio.ReadRelationFile(*candPath)
		if err != nil {
			fatal(err)
		}
		if len(tuples) != 1 {
			fatal(fmt.Errorf("candidate file must hold exactly one tuple, got %d", len(tuples)))
		}
		// Rebuild the candidate over the instance schema by attribute
		// name; a column the instance lacks is a typo, not a wildcard.
		cand := model.NewTuple(ie.Schema())
		for a, attr := range tuples[0].Schema().Attrs() {
			if !cand.Set(attr, tuples[0].At(a)) {
				fatal(fmt.Errorf("candidate column %q is not in the instance schema", attr))
			}
		}
		if sess.Check(cand) {
			fmt.Println("candidate PASSES the chase check")
		} else {
			fmt.Println("candidate FAILS the chase check")
			os.Exit(1)
		}
	}
}

// startProfiles starts the CPU profile when cpuPath is set and returns
// the function that ends the run's profiling: it stops the CPU profile
// and, when memPath is set, writes the allocation profile after a
// collection, so its live figures are current. A profile that cannot
// be written is fatal, as any output file is.
func startProfiles(cpuPath, memPath string) (stop func()) {
	var cpu *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		cpu = f
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fatal(err)
			}
		}
		if memPath != "" {
			runtime.GC()
			err := atomicWrite(memPath, func(w io.Writer) error { return pprof.Lookup("allocs").WriteTo(w, 0) })
			if err != nil {
				fatal(err)
			}
		}
	}
}

func load(dataPath, masterPath, rulesPath string) (*core.Session, *model.EntityInstance, *rule.Set, error) {
	f, err := os.Open(dataPath)
	if err != nil {
		return nil, nil, nil, err
	}
	defer f.Close()
	ie, err := csvio.ReadEntityInstance(f, "instance")
	if err != nil {
		return nil, nil, nil, err
	}
	im, rules, err := ingest.LoadSpec(masterPath, rulesPath, ie.Schema())
	if err != nil {
		return nil, nil, nil, err
	}
	sess, err := core.NewSession(ie, im, rules)
	if err != nil {
		return nil, nil, nil, err
	}
	return sess, ie, rules, nil
}

type batchArgs struct {
	data, master, rules string
	by, key             string
	threshold           float64
	workers, topK       int
	algo                string
	out                 string
	verbose             bool
	stream              string
	window              int
}

// streamWindow maps -stream to the grouping window a -by relation
// streams under; every -by run streams, the mode only sizes the window.
// on bounds it at -window; off leaves it unbounded, which groups any
// row order at the memory cost of holding the relation; auto bounds it
// only when a one-pass probe finds the rows in contiguous per-key runs
// (sorted input is, and so is any export that emitted entities one at
// a time), the one shape that streams at any window size. A probe
// failure leaves the window unbounded; the run itself reports the real
// error.
func streamWindow(mode string, window int, data, by string) er.Window {
	switch mode {
	case "on":
		return er.Window{MaxEntities: window}
	case "off":
		return er.Window{}
	case "auto":
	default:
		fatal(fmt.Errorf("-stream must be on, off or auto (got %q)", mode))
	}
	if by == "" {
		return er.Window{}
	}
	f, err := os.Open(data)
	if err != nil {
		return er.Window{}
	}
	defer f.Close()
	if ok, err := ingest.RunLength(f, data, by); err == nil && ok {
		return er.Window{MaxEntities: window}
	}
	return er.Window{}
}

// windowString renders a window for the run's header line.
func windowString(w er.Window) string {
	if w.MaxEntities == 0 {
		return "unbounded window"
	}
	return fmt.Sprintf("window %d", w.MaxEntities)
}

// readHeaderSchema opens the relation just long enough to read its
// header row: the rules parse against the schema before the single
// full pass begins.
func readHeaderSchema(path string) (*model.Schema, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	it, err := csvio.NewTupleIterator(f, path)
	if err != nil {
		return nil, err
	}
	return it.Schema(), nil
}

// runBatch is the multi-entity pipeline front end: relation CSV in,
// per-entity verdicts and a summary out. A -by relation streams: rows
// decode one at a time, entities seal as the window retires them, and
// verdicts (and -o rows) stream out while later rows are still being
// read. -key similarity grouping must see the whole relation, so it
// resolves the materialized relation first and then runs the same
// sink and -o writer over the resolved entities.
func runBatch(a batchArgs) {
	if a.data == "" || a.rules == "" {
		fmt.Fprintln(os.Stderr, "relacc: -data and -rules are required")
		os.Exit(2)
	}
	if (a.by == "") == (a.key == "") {
		fmt.Fprintln(os.Stderr, "relacc: batch needs exactly one of -by (identifier column) or -key (ER key attributes)")
		os.Exit(2)
	}
	alg, err := pipeline.ParseAlgorithm(a.algo)
	if err != nil {
		fatal(err)
	}
	window := streamWindow(a.stream, a.window, a.data, a.by)
	if a.key != "" && a.stream == "on" {
		fatal(fmt.Errorf("-stream on needs -by: similarity grouping (-key) must see the whole relation"))
	}

	var schema *model.Schema
	var tuples []*model.Tuple
	if a.key != "" {
		schema, tuples, err = csvio.ReadRelationFile(a.data)
	} else {
		schema, err = readHeaderSchema(a.data)
	}
	if err != nil {
		fatal(err)
	}
	im, rules, err := ingest.LoadSpec(a.master, a.rules, schema)
	if err != nil {
		fatal(err)
	}
	cfg := pipeline.Config{
		Master:  im,
		Rules:   rules,
		Workers: a.workers,
		TopK:    a.topK,
		Algo:    alg,
	}
	var run func(sink func(pipeline.Result) error) (pipeline.Summary, error)
	if a.key != "" {
		entities, err := er.Resolve(tuples, schema, er.Config{
			KeyAttrs:  strings.Split(a.key, ","),
			Threshold: a.threshold,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%d tuples grouped into %d entities\n", len(tuples), len(entities))
		run = func(sink func(pipeline.Result) error) (pipeline.Summary, error) {
			return pipeline.Stream(entities, cfg, sink)
		}
	} else {
		fmt.Printf("streaming %s grouped by %s (%s)\n", a.data, a.by, windowString(window))
		run = func(sink func(pipeline.Result) error) (pipeline.Summary, error) {
			f, err := os.Open(a.data)
			if err != nil {
				return pipeline.Summary{}, err
			}
			defer f.Close()
			return ingest.StreamCSV(f, a.data, ingest.Options{By: a.by, Window: window}, cfg, sink)
		}
	}

	var sum pipeline.Summary
	settled := writeSettled(a.out, schema, func(settle func(pipeline.Result) error) error {
		sum, err = run(func(r pipeline.Result) error {
			if a.verbose || r.Settled() == nil {
				printEntityLine(fmt.Sprintf("%d", r.Index), r, a.verbose)
			}
			return settle(r)
		})
		return err
	})
	fmt.Println(sum.String())
	if a.out != "" {
		fmt.Printf("wrote %d settled targets (of %d entities) to %s\n", settled, sum.Entities, a.out)
	}
}

type appendArgs struct {
	data, delta, master, rules string
	by                         string
	workers, topK              int
	algo                       string
	out                        string
	verbose                    bool
	stream                     string
	window                     int
}

// runAppend is the incremental pipeline front end: the base relation
// streams into live per-entity sessions (tuples decode one at a time,
// and the window turns each sealed entity into one update),
// the delta relation streams into them the same way, and only the
// touched entities are re-deduced (through chase-level delta
// instantiation). -o snapshots the final state of every entity.
func runAppend(a appendArgs) {
	if a.data == "" || a.delta == "" || a.rules == "" {
		fmt.Fprintln(os.Stderr, "relacc: append needs -data, -delta and -rules")
		os.Exit(2)
	}
	if a.by == "" {
		fmt.Fprintln(os.Stderr, "relacc: append needs -by (the identifier column routing delta tuples)")
		os.Exit(2)
	}
	alg, err := pipeline.ParseAlgorithm(a.algo)
	if err != nil {
		fatal(err)
	}
	window := streamWindow(a.stream, a.window, a.data, a.by)
	f, err := os.Open(a.data)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	it, err := csvio.NewTupleIterator(f, a.data)
	if err != nil {
		fatal(err)
	}
	schema := it.Schema()
	im, rules, err := ingest.LoadSpec(a.master, a.rules, schema)
	if err != nil {
		fatal(err)
	}
	u, err := pipeline.NewUpdater(schema, pipeline.Config{
		Master:  im,
		Rules:   rules,
		Workers: a.workers,
		TopK:    a.topK,
		Algo:    alg,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("streaming %s into live entities by %s (%s)\n", a.data, a.by, windowString(window))
	baseSum, err := ingest.SeedUpdater(u, it, ingest.SeedOptions{
		By:     a.by,
		Window: window,
		Sink: func(r pipeline.Result) error {
			if a.verbose {
				printEntityLine(entityLabel(r, a.by), r, true)
			}
			return nil
		},
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("base: %d entities seeded\n", u.Len())
	fmt.Println("base:", baseSum.String())

	applyDelta(u, a)

	if a.out != "" {
		// Snapshot re-deduces nothing that has not changed (deductions
		// are memoized per version); it is the final state of every
		// entity in registration order.
		entities := 0
		settled := writeSettled(a.out, schema, func(settle func(pipeline.Result) error) error {
			_, results, _, err := u.Snapshot()
			if err != nil {
				return err
			}
			entities = len(results)
			for _, r := range results {
				if err := settle(r); err != nil {
					return err
				}
			}
			return nil
		})
		fmt.Printf("wrote %d settled targets (of %d entities) to %s\n", settled, entities, a.out)
	}
}

// applyDelta runs append's delta phase through the base's chain: the
// delta CSV decodes onto the base schema (columns match by name), groups
// by -by under its own window, and is applied in batches, each touched
// entity's re-deduced verdict printing as its batch applies.
func applyDelta(u *pipeline.Updater, a appendArgs) {
	window := streamWindow(a.stream, a.window, a.delta, a.by)
	f, err := os.Open(a.delta)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	it, err := csvio.NewTupleIteratorOn(f, u.Schema())
	if err != nil {
		fatal(fmt.Errorf("delta %s: %w", a.delta, err))
	}
	fmt.Printf("streaming %s into live entities by %s (%s); re-deduced targets:\n", a.delta, a.by, windowString(window))
	before := u.Len()
	sum, err := ingest.SeedUpdater(u, it, ingest.SeedOptions{
		By:     a.by,
		Window: window,
		Sink: func(r pipeline.Result) error {
			printEntityLine(entityLabel(r, a.by), r, a.verbose)
			return nil
		},
	})
	if err != nil {
		fatal(fmt.Errorf("delta %s: %w", a.delta, err))
	}
	fmt.Printf("delta: %d tuples touched %d entities (%d new)\n", it.Row()-1, sum.Entities, u.Len()-before)
	fmt.Println("delta:", sum.String())
}

// entityLabel recovers the display label — what the -by column says —
// from a streamed result (Result.Key is the type-tagged routing key,
// not for humans).
func entityLabel(r pipeline.Result, by string) string {
	if r.Instance != nil {
		if ts := r.Instance.Tuples(); len(ts) > 0 {
			if v, ok := ts[0].Get(by); ok && !v.IsNull() {
				return v.String()
			}
		}
	}
	return r.Key
}

// writeSettled runs a batch inside the atomic -o write: run hands every
// result to settle, which streams the result's settled target into the
// temp file as the entity resolves, and the rename publishes the
// complete output only after run ends cleanly — a failed run leaves
// path as it was. With no -o it only counts. It returns how many
// entities settled.
func writeSettled(path string, schema *model.Schema, run func(settle func(pipeline.Result) error) error) int {
	settled := 0
	write := func(rw *csvio.RelationWriter) error {
		return run(func(r pipeline.Result) error {
			t := r.Settled()
			if t == nil {
				return nil
			}
			settled++
			if rw == nil {
				return nil
			}
			return rw.Write(t)
		})
	}
	var err error
	if path == "" {
		err = write(nil)
	} else {
		err = atomicWrite(path, func(w io.Writer) error {
			rw, err := csvio.NewRelationWriter(w, schema)
			if err != nil {
				return err
			}
			if err := write(rw); err != nil {
				return err
			}
			return rw.Flush()
		})
	}
	if err != nil {
		fatal(err)
	}
	return settled
}

// atomicWrite writes path through a temp file in the same directory
// plus a rename, so a run that dies mid-write (a later fatal, a write
// error, a kill) never leaves a truncated or partial file where the
// caller asked for output — path either keeps its previous content or
// holds the complete new one.
func atomicWrite(path string, write func(io.Writer) error) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		// A bare filename must get its temp file in the SAME directory:
		// CreateTemp("") would use os.TempDir, and renaming out of a
		// tmpfs /tmp fails cross-device.
		dir = "."
	}
	f, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return err
	}
	// CreateTemp makes the file 0600; restore os.Create semantics so
	// the rename does not silently turn a shared output owner-only —
	// keep an existing destination's mode, else 0666 filtered by the
	// umask, exactly what os.Create would have produced.
	var mode os.FileMode
	if st, err := os.Stat(path); err == nil {
		mode = st.Mode().Perm()
	} else {
		mode = os.FileMode(0o666) &^ os.FileMode(processUmask())
	}
	if err := f.Chmod(mode); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return err
	}
	if err := os.Rename(f.Name(), path); err != nil {
		os.Remove(f.Name())
		return err
	}
	return nil
}

// printEntityLine reports one entity's outcome; batch labels entities
// by index, append by key. withTiming (verbose mode) appends the
// per-entity wall-clock time (pipeline.Result.Elapsed) so slow entities
// stand out inside an otherwise fast batch.
func printEntityLine(label string, r pipeline.Result, withTiming bool) {
	target := r.Settled()
	line := fmt.Sprintf("entity %-12s [%d tuples]  %-17s", label, r.Instance.Size(), r.Status())
	switch {
	case r.Err != nil:
		line += " " + r.Err.Error()
	case r.Status() == "not-church-rosser":
		line += " " + r.Deduction.Conflict
	case target != nil:
		line += " " + target.String()
	default:
		line += " " + r.Deduction.Target.String()
	}
	if withTiming {
		line += fmt.Sprintf("  (%s)", r.Elapsed.Round(time.Microsecond))
	}
	fmt.Println(line)
}

func printTarget(schema *model.Schema, t *model.Tuple) {
	for a := 0; a < schema.Arity(); a++ {
		v := t.At(a)
		mark := " "
		if v.IsNull() {
			mark = "?"
		}
		fmt.Printf("  %s %-14s = %s\n", mark, schema.Attr(a), v)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: relacc <deduce|topk|check|rules|batch|append> -data data.csv -rules rules.txt [flags]
  deduce/topk/check/rules operate on one entity's tuples;
  batch groups a multi-entity relation (-by col | -key a,b) and runs the
  pipeline over it (-workers N -topk K -algo topkct|rankjoin|topkcth -o out.csv);
  batch and append write pprof profiles with -cpuprofile FILE and -memprofile FILE;
  append deduces a base relation, then streams -delta (the base's
  columns, in any order) into the live entities by -by and incrementally
  re-deduces only the touched ones;
  every -by relation streams, append's delta included, and
  -stream on|off|auto sizes its grouping window: on = -window N open
  entities, off = unbounded (any row order), auto = -window N when the
  rows arrive in contiguous per-key runs, unbounded otherwise (probed per
  file); input too disordered for the window fails, never splits an entity`)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "relacc:", err)
	os.Exit(1)
}
