// Package ingest composes the streaming ingest chain the batch tools
// run: csvio.TupleIterator → er.StreamGroupBy → pipeline.StreamFrom,
// one pull-based iterator feeding the next with no adapter goroutines
// and no materialization anywhere — rows decode one at a time, entities
// seal the moment the window retires them, results stream to the sink
// in entity order. Memory is proportional to the window plus the worker
// pool, never to the relation's length, and the results are
// byte-identical to the materialized ReadRelation → GroupBy → Run path
// (the package's equivalence suite enforces it for every window size;
// DESIGN.md invariant 10). LoadSpec reads the master data and rule file
// the front ends deduce under.
package ingest

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/chase"
	"repro/internal/csvio"
	"repro/internal/er"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/rule"
	"repro/internal/ruledsl"
)

// Options tunes a streaming ingest.
type Options struct {
	// By is the exact-identifier grouping attribute (required).
	By string
	// Window bounds the grouper's working set; zero is unbounded
	// (GroupBy-equivalent for any input order, at GroupBy's memory
	// cost). See er.Window.
	Window er.Window
	// OnRowError is consulted for recoverable CSV row errors: return
	// nil to skip the row, an error to abort. Nil aborts on the first
	// bad row.
	OnRowError func(error) error
}

// StreamCSV grounds a CSV relation end to end in constant memory:
// tuples are decoded one at a time, grouped into entities
// by exact equality on opts.By (keyed by model.Value.Key, as GroupBy
// keys) within the bounded window, and fed to
// the pipeline's worker pool with backpressure all the way back to the
// reader. Results reach sink in entity (first-appearance) order,
// byte-identical to the materialized path. Input too disordered for the
// window aborts with an *er.WindowError rather than ever emitting a
// split entity.
func StreamCSV(r io.Reader, name string, opts Options, cfg pipeline.Config, sink func(pipeline.Result) error) (pipeline.Summary, error) {
	it, err := csvio.NewTupleIterator(r, name)
	if err != nil {
		return pipeline.Summary{}, err
	}
	shared, err := chase.NewShared(it.Schema(), cfg.Master, cfg.Rules)
	if err != nil {
		return pipeline.Summary{}, err
	}
	// Decoded rows carry their base dictionary IDs, and a mark for each
	// value the base lacks, which the grounding worker interns into the
	// entity's own overlay: no value is interned on this goroutine.
	it.Intern(shared.Dict())
	es, err := er.StreamGroupBy(it, it.Schema(), opts.By, er.StreamOpts{
		Window:     opts.Window,
		OnRowError: opts.OnRowError,
	})
	if err != nil {
		return pipeline.Summary{}, err
	}
	return pipeline.StreamFrom(shared, es, cfg, sink)
}

// RunLength reports whether the relation's rows arrive grouped in
// contiguous runs per opts.By key — sorted input is, and so is any
// export that emitted entities one at a time. Run-length input streams
// at window 1, so callers use this one cheap pass to decide whether
// streaming can be the default. A null key ends the run it interrupts
// (each null is its own singleton entity, so the key resuming after it
// counts as a reappearance); recoverable row errors are skipped,
// matching what a skipping stream would see.
func RunLength(r io.Reader, name, by string) (bool, error) {
	it, err := csvio.NewTupleIterator(r, name)
	if err != nil {
		return false, err
	}
	i := it.Schema().Index(by)
	if i < 0 {
		return false, &er.UnknownAttrError{Attr: by}
	}
	seen := map[string]struct{}{}
	cur := ""
	haveCur := false
	for {
		t, err := it.Next()
		if err == io.EOF {
			return true, nil
		}
		if err != nil {
			if csvio.IsRowError(err) {
				continue
			}
			return false, err
		}
		v := t.At(i)
		if v.IsNull() {
			// A null singleton ends the current run: at window 1 it
			// seals the open entity, so the key resuming afterwards
			// would be a reappearance.
			haveCur = false
			continue
		}
		k := v.Key()
		if haveCur && k == cur {
			continue
		}
		if _, ok := seen[k]; ok {
			return false, nil
		}
		seen[k] = struct{}{}
		cur, haveCur = k, true
	}
}

// SeedOptions tunes SeedUpdater.
type SeedOptions struct {
	// By is the routing identifier attribute (required). Null
	// identifiers abort the seed: update routing needs a real key.
	By string
	// KeyOf renders identifier values to routing keys; nil means
	// model.Value.Key.
	KeyOf func(model.Value) (string, error)
	// Window bounds the grouper's working set (zero: unbounded).
	Window er.Window
	// Batch is how many entities are applied per Updater.Apply call;
	// <= 0 means 256. Each key appears in exactly one batch (the
	// grouper guarantees a sealed key never reappears), so batch size
	// never changes any entity's outcome.
	Batch int
	// OnRowError is consulted for recoverable CSV row errors, as in
	// Options.
	OnRowError func(error) error
	// Sink, when set, receives every per-entity Result as its batch is
	// applied — the seed's progress reporting hook.
	Sink func(pipeline.Result) error
}

// SeedUpdater streams a CSV relation into a live Updater: decoded
// tuples resolve against the updater's base dictionary, group under
// the window, and each sealed entity becomes one Update applied in
// modest batches — a cold boot of a large seed CSV runs in
// window-bounded memory. The
// iterator must have been opened on the updater's schema (pointer
// identity: build the Updater from it.Schema()).
func SeedUpdater(u *pipeline.Updater, it *csvio.TupleIterator, opts SeedOptions) (pipeline.Summary, error) {
	start := time.Now()
	var sum pipeline.Summary
	if it.Schema() != u.Schema() {
		return sum, fmt.Errorf("ingest: iterator schema %s is not the updater's %s — build the updater from the iterator's schema",
			it.Schema().Name(), u.Schema().Name())
	}
	it.Intern(u.Dict())
	es, err := er.StreamGroupBy(it, u.Schema(), opts.By, er.StreamOpts{
		Window:     opts.Window,
		KeyOf:      opts.KeyOf,
		Nulls:      er.NullReject,
		OnRowError: opts.OnRowError,
	})
	if err != nil {
		return sum, err
	}
	batchSize := opts.Batch
	if batchSize <= 0 {
		batchSize = 256
	}
	var batch []pipeline.Update
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		results, bsum, err := u.Apply(batch)
		batch = batch[:0]
		if err != nil {
			return err
		}
		sum.Merge(&bsum)
		if opts.Sink != nil {
			for _, r := range results {
				if err := opts.Sink(r); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for {
		ie, err := es.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return sum, err
		}
		batch = append(batch, pipeline.Update{Key: es.LastKey(), Tuples: ie.Tuples()})
		if len(batch) >= batchSize {
			if err := flush(); err != nil {
				return sum, err
			}
		}
	}
	if err := flush(); err != nil {
		return sum, err
	}
	sum.Elapsed = time.Since(start)
	return sum, nil
}

// LoadSpec loads the specification a relation is deduced under: the
// optional master relation CSV (no master when masterPath is empty) and
// the rule file, parsed and validated against the entity schema and the
// master schema.
func LoadSpec(masterPath, rulesPath string, schema *model.Schema) (*model.MasterRelation, *rule.Set, error) {
	var im *model.MasterRelation
	var ms *model.Schema
	if masterPath != "" {
		f, err := os.Open(masterPath)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		if im, err = csvio.ReadMaster(f, "master"); err != nil {
			return nil, nil, err
		}
		ms = im.Schema()
	}
	text, err := os.ReadFile(rulesPath)
	if err != nil {
		return nil, nil, err
	}
	parsed, err := ruledsl.Parse(string(text))
	if err != nil {
		return nil, nil, err
	}
	rules, err := rule.NewSet(schema, ms, parsed...)
	if err != nil {
		return nil, nil, err
	}
	return im, rules, nil
}
