package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"repro/internal/chase"
	"repro/internal/csvio"
	"repro/internal/er"
	"repro/internal/ingest"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/topk"
	"repro/internal/wal"
)

// The traced run replays a workload's inputs and operation sequence
// in-process, one op at a time, with a span around every call into a
// layer's public entry point. The program's own layers call each other
// internally, so the replay drives three replicas per op: the server
// (server.Handler over an Updater, with the WAL behind a timing
// Persister), the pipeline (Updater.Apply/Query direct) and the engine
// (chase.Shared/Grounding and topk direct, mirroring what the Updater
// does inside). A layer's self time is its span minus the spans of the
// next layer down for the same op.

// span is one timed call. n holds the counts the call returned.
type span struct {
	name       string
	start, end time.Duration
	parent     int32
	op         int32
	n          [4]int64
}

func (s *span) dur() time.Duration { return s.end - s.start }

// tracer records spans in memory; it is used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	cur   int32 // innermost open span, -1 when none
	op    int32 // current op id, -1 during set-up
}

func newTracer() *tracer { return &tracer{t0: time.Now(), cur: -1, op: -1} }

func (t *tracer) begin(name string) int32 {
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), parent: t.cur, op: t.op})
	t.cur = int32(len(t.spans) - 1)
	return t.cur
}

func (t *tracer) end(i int32, counts ...int64) {
	s := &t.spans[i]
	s.end = time.Since(t.t0)
	copy(s.n[:], counts)
	t.cur = s.parent
}

// tracedRows is a csvio.TupleIterator with a span around each Next.
type tracedRows struct {
	it *csvio.TupleIterator
	t  *tracer
}

func (r tracedRows) Next() (*model.Tuple, error) {
	s := r.t.begin("csvio")
	tu, err := r.it.Next()
	if err == nil {
		r.t.end(s, 1)
	} else {
		r.t.end(s, 0)
	}
	return tu, err
}

// timedPersister is a pipeline.Persister timing a *wal.Store.
type timedPersister struct {
	s *wal.Store
	t *tracer
}

func (p timedPersister) LogApply(ups []pipeline.Update) (uint64, error) {
	n := 0
	for _, u := range ups {
		n += len(u.Tuples)
	}
	s := p.t.begin("wal.log")
	seq, err := p.s.LogApply(ups)
	p.t.end(s, int64(n))
	return seq, err
}

// engine is the replica that calls chase and topk directly.
type engine struct {
	t      *tracer
	shared *chase.Shared
	gs     map[string]*chase.Grounding
	memo   map[string][2]int // key -> (version, k) of the Updater's settled memo
	hits   int64
}

func newEngine(t *tracer, sp *spec) (*engine, error) {
	shared, err := chase.NewShared(sp.schema, sp.master, sp.rules)
	if err != nil {
		return nil, err
	}
	return &engine{t: t, shared: shared, gs: map[string]*chase.Grounding{}, memo: map[string][2]int{}}, nil
}

// ground builds a key's grounding and deduces it, as Updater.Apply does
// for a new key.
func (en *engine) ground(key string, ie *model.EntityInstance) error {
	s := en.t.begin("chase.ground")
	g, err := en.shared.NewGrounding(ie, chase.Options{})
	if err != nil {
		en.t.end(s)
		return err
	}
	en.t.end(s, int64(g.GroundSteps()))
	en.gs[key] = g
	en.run(key, 0)
	return nil
}

// absorb extends (or creates) a key's grounding by one tuple and deduces.
func (en *engine) absorb(key string, tu *model.Tuple) error {
	g := en.gs[key]
	if g == nil {
		ie := model.NewEntityInstance(en.shared.Schema())
		ie.MustAdd(tu)
		return en.ground(key, ie)
	}
	s := en.t.begin("chase.extend")
	ng, err := g.Extend(tu)
	en.t.end(s)
	if err != nil {
		return err
	}
	en.gs[key] = ng
	en.run(key, 0)
	return nil
}

// run deduces a key's committed grounding and, when k > 0 and the target
// is incomplete, searches top-k candidates — unless the Updater's settled
// memo already holds this (version, k), in which case it does nothing,
// as the Updater does.
func (en *engine) run(key string, k int) {
	g := en.gs[key]
	state := [2]int{g.Version(), k}
	if m, ok := en.memo[key]; ok && m == state {
		en.hits++
		return
	}
	en.memo[key] = state
	s := en.t.begin("chase.run")
	res := g.Run(nil)
	en.t.end(s)
	if k <= 0 || !res.CR || res.Target.Complete() {
		return
	}
	s = en.t.begin("topk.search")
	cands, st, _ := topk.TopKCT(g, res.Target, topk.Preference{K: k, MaxChecks: maxChecks})
	en.t.end(s, int64(st.Checks), int64(st.Pops), int64(st.Generated), int64(len(cands)))
}

// serveOp replays one op through the server handler.
func serveOp(t *tracer, h http.Handler, o *op) error {
	method, path, body := o.request()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s := t.begin("server")
	h.ServeHTTP(rec, req)
	t.end(s, int64(rec.Body.Len()))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, rec.Code, rec.Body.String())
	}
	return nil
}

// seedEngine builds the engine replica on a seed CSV's schema and grounds
// every entity through the traced csvio → er → chase chain, interning
// values as they decode like the programs do.
func seedEngine(t *tracer, d *dataset, seedCSV []byte) (*engine, error) {
	it, err := csvio.NewTupleIterator(bytes.NewReader(seedCSV), "seed")
	if err != nil {
		return nil, err
	}
	sp, err := specOn(it.Schema(), d)
	if err != nil {
		return nil, err
	}
	en, err := newEngine(t, sp)
	if err != nil {
		return nil, err
	}
	it.Intern(en.shared.Dict())
	es, err := er.StreamGroupBy(tracedRows{it, t}, it.Schema(), "name", er.StreamOpts{
		Window: er.Window{MaxEntities: 1024},
		KeyOf:  func(v model.Value) (string, error) { return v.String(), nil },
	})
	if err != nil {
		return nil, err
	}
	for {
		s := t.begin("er")
		ie, err := es.Next()
		if err == io.EOF {
			t.end(s)
			return en, nil
		}
		if err != nil {
			t.end(s)
			return nil, err
		}
		t.end(s, int64(ie.Size()))
		if err := en.ground(es.LastKey(), ie); err != nil {
			return nil, err
		}
		if t.op >= 0 {
			t.op++
		}
	}
}

// replayIngest replays relacc batch: rows through csvio, entities
// through er, each entity grounded and deduced. Each entity is one op.
func replayIngest(t *tracer, d *dataset) (*layers, error) {
	t.op = 0
	_, err := seedEngine(t, d, d.relation)
	t.op = -1
	return &layers{}, err
}

// layers holds what the serve replays read back from the replicas.
type layers struct {
	cache        pipeline.CacheStats
	walBytes     int64
	walTuples    int64
	memoMirrored int64
}

// replayEvidence replays serve-evidence: every append through the
// durable server, the pipeline and the engine, then WAL recovery.
func replayEvidence(t *tracer, e *env, d *dataset, ops []op) (*layers, error) {
	sp, err := loadSpec(d)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(e.work, "trace-wal")
	store, err := wal.Open(dir, sp.schema, wal.Options{Fsync: wal.SyncAlways})
	if err != nil {
		return nil, err
	}
	defer store.Close()
	uS, err := pipeline.NewUpdater(sp.schema, sp.updaterConfig())
	if err != nil {
		return nil, err
	}
	uS.AttachPersister(timedPersister{store, t})
	h := server.New(uS, server.Options{Store: store}).Handler()
	uP, err := pipeline.NewUpdater(sp.schema, sp.updaterConfig())
	if err != nil {
		return nil, err
	}
	en, err := newEngine(t, sp)
	if err != nil {
		return nil, err
	}
	for i := range ops {
		o := &ops[i]
		t.op = int32(i)
		if err := serveOp(t, h, o); err != nil {
			return nil, err
		}
		if err := applyTraced(t, uP, o.key, onSchema(o.tuple, sp.schema)); err != nil {
			return nil, err
		}
		if err := en.absorb(o.key, onSchema(o.tuple, sp.schema)); err != nil {
			return nil, err
		}
	}
	t.op = -1
	l := &layers{cache: uP.CacheStats(), walBytes: store.Stats().WALBytes, walTuples: int64(len(ops)), memoMirrored: en.hits}
	if err := store.Close(); err != nil {
		return nil, err
	}
	re, err := wal.Open(dir, sp.schema, wal.Options{Fsync: wal.SyncAlways})
	if err != nil {
		return nil, err
	}
	defer re.Close()
	uR, err := pipeline.NewUpdater(sp.schema, sp.updaterConfig())
	if err != nil {
		return nil, err
	}
	s := t.begin("wal.recover")
	rs, err := re.Recover(uR)
	t.end(s, int64(rs.Batches))
	if err != nil {
		return nil, err
	}
	if uR.Len() != uP.Len() {
		return nil, fmt.Errorf("recovered %d entities, applied %d", uR.Len(), uP.Len())
	}
	return l, nil
}

func applyTraced(t *tracer, u *pipeline.Updater, key string, tu *model.Tuple) error {
	s := t.begin("pipeline.apply")
	res, _, err := u.Apply([]pipeline.Update{{Key: key, Tuples: []*model.Tuple{tu}}})
	t.end(s)
	if err == nil && res[0].Err != nil {
		err = res[0].Err
	}
	return err
}

// replayQuery replays serve-query: the seed into each replica, then the
// query/append mix through the server, the pipeline and the engine.
func replayQuery(t *tracer, d *dataset, q *queryMix, ops []op) (*layers, error) {
	uS, err := seededUpdater(d, q.seedCSV)
	if err != nil {
		return nil, err
	}
	h := server.New(uS, server.Options{}).Handler()

	it, err := csvio.NewTupleIterator(bytes.NewReader(q.seedCSV), "seed")
	if err != nil {
		return nil, err
	}
	sp, err := specOn(it.Schema(), d)
	if err != nil {
		return nil, err
	}
	uP, err := pipeline.NewUpdater(sp.schema, sp.updaterConfig())
	if err != nil {
		return nil, err
	}
	s := t.begin("pipeline.seed")
	_, err = ingest.SeedUpdater(uP, it, seedOptions())
	t.end(s)
	if err != nil {
		return nil, err
	}
	en, err := seedEngine(t, d, q.seedCSV)
	if err != nil {
		return nil, err
	}
	for i := range ops {
		o := &ops[i]
		t.op = int32(i)
		if err := serveOp(t, h, o); err != nil {
			return nil, err
		}
		if o.route == routeAppend {
			if err := applyTraced(t, uP, o.key, onSchema(o.tuple, sp.schema)); err != nil {
				return nil, err
			}
			if err := en.absorb(o.key, onSchema(o.tuple, en.shared.Schema())); err != nil {
				return nil, err
			}
			continue
		}
		s := t.begin("pipeline.query")
		_, ok := uP.Query(o.key, o.k, pipeline.AlgoTopKCT)
		t.end(s)
		if !ok {
			return nil, fmt.Errorf("query for unknown key %s", o.key)
		}
		en.run(o.key, o.k)
	}
	t.op = -1
	return &layers{cache: uP.CacheStats(), memoMirrored: en.hits}, nil
}
