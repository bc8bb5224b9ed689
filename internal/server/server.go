// Package server puts a network front end on the update stream: an
// HTTP/JSON serving layer over a pipeline.Updater, so evidence can be
// appended and relative-accuracy verdicts queried over the wire — the
// "evidence arrives over time, re-deduce per entity" workload the
// sharded updater was built for. cmd/relaccd is its daemon face;
// relacc.NewServer the programmatic one.
//
// Routes (all responses are JSON):
//
//	GET  /healthz                      liveness probe
//	GET  /v1/schema                    the entity schema clients must speak
//	GET  /v1/stats                     aggregate serving statistics
//	GET  /v1/entities                  live entities with versions
//	GET  /v1/entities/{key}            re-deduce one entity (no search)
//	GET  /v1/entities/{key}/topk       candidates; ?k=N&algo=topkct|rankjoin|topkcth
//	POST /v1/entities/{key}/evidence   append tuples to one entity
//	                                   (422 when the absorption itself fails)
//	POST /v1/evidence                  append a keyed batch (one Apply);
//	                                   200 with per-entity results — check
//	                                   each result's error/status, a batch
//	                                   is never all-or-nothing
//	POST /v1/snapshot                  checkpoint the durable store now
//	                                   (409 when the daemon is memory-only)
//
// Tuples travel as JSON objects keyed by attribute name; strings,
// numbers, booleans and null map onto the model's value kinds, and
// attributes left out are null. Entity keys are caller-chosen strings,
// except that '/' is rejected — the per-entity routes address one path
// segment, and a key they cannot address would be write-only. Handlers
// do no locking of their own: appends route straight into
// Updater.Apply (per-entity serialisation, disjoint keys concurrent)
// and queries read atomically published grounding versions, so a slow
// deduction never blocks the rest of the keyspace. Two server-wide
// controls bound resource use: at most Options.MaxInFlight requests
// run at once (the rest queue until a slot frees or the client gives
// up; /healthz bypasses the gate) and request bodies are capped at
// Options.MaxBodyBytes (413 past it). Bodies are read in full before
// a request queues for the gate, so the server's read deadline covers
// client I/O only and a slow sender never occupies a slot.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/wal"
)

// Options tunes the serving layer; the zero value serves with the
// defaults noted on each field.
type Options struct {
	// MaxInFlight bounds how many requests are served concurrently;
	// excess requests wait for a slot (or for their client to give
	// up). <= 0 means 256. /healthz bypasses the gate so liveness
	// probes answer even at capacity.
	MaxInFlight int
	// MaxTopK caps the ?k= a topk query may request; every verified
	// candidate costs a chase run, so an unbounded k would let one
	// query pin the daemon's CPU. <= 0 means 100; requests past the
	// cap answer 400.
	MaxTopK int
	// MaxBodyBytes caps a request body; an oversized POST answers 413
	// instead of buffering unbounded JSON. <= 0 means 8 MiB.
	MaxBodyBytes int64
	// MaxBufferedBytes caps the AGGREGATE bytes of request bodies
	// buffered ahead of the concurrency gate across all connections —
	// the global byte budget MaxBodyBytes alone cannot provide, since
	// any number of clients may each buffer one capped body. A request
	// that would push the total past the cap answers 429 with
	// Retry-After instead of queueing, so a flood degrades into
	// explicit backpressure rather than unbounded memory. <= 0 means
	// 64 MiB.
	MaxBufferedBytes int64
	// Store, when non-nil, is the durable store under the updater: it
	// enables the POST /v1/snapshot admin route and the durability
	// fields of /v1/stats. The server does not open or close it.
	Store *wal.Store
	// SnapshotEvery, with Store set, checkpoints the store after every
	// N successful appends (asynchronously, single-flight); 0 disables
	// periodic snapshots.
	SnapshotEvery int
}

// defaultTopK is the candidate count a topk query without ?k= asks
// for, capped by Options.MaxTopK.
const defaultTopK = 5

func (o Options) maxInFlight() int {
	if o.MaxInFlight > 0 {
		return o.MaxInFlight
	}
	return 256
}

func (o Options) maxTopK() int {
	if o.MaxTopK > 0 {
		return o.MaxTopK
	}
	return 100
}

func (o Options) maxBodyBytes() int64 {
	if o.MaxBodyBytes > 0 {
		return o.MaxBodyBytes
	}
	return 8 << 20
}

func (o Options) maxBufferedBytes() int64 {
	if o.MaxBufferedBytes > 0 {
		return o.MaxBufferedBytes
	}
	return 64 << 20
}

// Server serves one Updater's update stream over HTTP. Create with
// New; all methods are safe for concurrent use.
type Server struct {
	u       *pipeline.Updater
	opts    Options
	started time.Time

	// Serving statistics, reported by /v1/stats.
	appends atomic.Int64 // Apply-routing requests served
	tuples  atomic.Int64 // evidence tuples absorbed
	queries atomic.Int64 // read requests served
	errs    atomic.Int64 // requests answered with a 4xx/5xx status

	// appendLat windows the latest Apply latencies (the updater call
	// alone, not JSON or queueing) for the stats percentiles.
	appendLat *stats.Ring

	// buffered is the aggregate request-body bytes currently held by
	// readBody, across all connections; the MaxBufferedBytes gate.
	buffered atomic.Int64

	// Periodic-snapshot state (Options.SnapshotEvery): appends since
	// the last trigger, a single-flight latch, and failures for stats.
	sinceSnap atomic.Int64
	snapping  atomic.Bool
	snapFails atomic.Int64
}

// New builds a serving layer over the updater. The updater may already
// hold live entities (a seeded stream) and may keep receiving direct
// Apply calls; the server adds no state of its own beyond counters.
func New(u *pipeline.Updater, opts Options) *Server {
	return &Server{u: u, opts: opts, started: time.Now(), appendLat: stats.NewRing(0)}
}

// Handler returns the routing handler with the concurrency limit
// applied; pass it to an http.Server (see cmd/relaccd). /healthz sits
// OUTSIDE the limit, so a saturated daemon still answers liveness
// probes instead of getting killed by its orchestrator.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/schema", s.handleSchema)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/entities", s.handleList)
	mux.HandleFunc("GET /v1/entities/{key}", s.handleEntity)
	mux.HandleFunc("GET /v1/entities/{key}/topk", s.handleTopK)
	mux.HandleFunc("POST /v1/entities/{key}/evidence", s.handleAppendOne)
	mux.HandleFunc("POST /v1/evidence", s.handleAppendBatch)
	mux.HandleFunc("POST /v1/snapshot", s.handleSnapshot)
	outer := http.NewServeMux()
	outer.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		s.writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	outer.Handle("/", s.readBody(withLimit(mux, s.opts.maxInFlight())))
	return outer
}

// readBody buffers the request body BEFORE the concurrency gate, for
// two reasons: the server's read deadline then covers only actual
// client I/O, so a valid request queued behind the gate for longer
// than the deadline cannot die "reading" a body it already sent; and
// a slow-body client stalls here, outside the gate, instead of
// pinning a MaxInFlight slot inside the JSON decoder. The body cap
// bounds what each queued request may buffer (413 past it) and the
// AGGREGATE buffer across connections is bounded by MaxBufferedBytes:
// each request reserves its worst case (the declared Content-Length,
// or the full body cap for chunked senders) before reading, shrinks
// the reservation to the bytes actually held, and releases it when
// the handler finishes. A request that cannot reserve answers 429
// with Retry-After instead of queueing — explicit backpressure in
// place of unbounded memory.
func (s *Server) readBody(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil && r.Body != http.NoBody {
			reserve := s.opts.maxBodyBytes()
			if r.ContentLength >= 0 && r.ContentLength < reserve {
				// The server stops a body read at the declared length,
				// so this reservation is a true upper bound even for a
				// client that would send more.
				reserve = r.ContentLength
			}
			if reserve > 0 {
				if held := s.buffered.Add(reserve); held > s.opts.maxBufferedBytes() {
					s.buffered.Add(-reserve)
					w.Header().Set("Retry-After", "1")
					s.error(w, http.StatusTooManyRequests,
						fmt.Sprintf("server is buffering %d bytes of request bodies (cap %d); retry shortly",
							held-reserve, s.opts.maxBufferedBytes()))
					return
				}
				// Closure, not a direct defer: the reservation shrinks
				// after the read and the release must match it.
				defer func() { s.buffered.Add(-reserve) }()
			}
			data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.maxBodyBytes()))
			if err != nil {
				var tooBig *http.MaxBytesError
				if errors.As(err, &tooBig) {
					s.error(w, http.StatusRequestEntityTooLarge,
						fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
					return
				}
				s.error(w, http.StatusBadRequest, "reading request body: "+err.Error())
				return
			}
			if reserve > 0 && int64(len(data)) < reserve {
				// Keep only what is actually held; the deferred release
				// returns the rest now instead of at handler exit.
				s.buffered.Add(int64(len(data)) - reserve)
				reserve = int64(len(data))
			}
			r.Body = io.NopCloser(bytes.NewReader(data))
		}
		h.ServeHTTP(w, r)
	})
}

// withLimit is the request-concurrency gate: at most n requests run in
// the wrapped handler at once; the rest queue on the semaphore until a
// slot frees or their client disconnects. Queueing (rather than
// failing fast) gives producers natural backpressure — a burst of
// appends drains at the updater's pace instead of erroring.
func withLimit(h http.Handler, n int) http.Handler {
	sem := make(chan struct{}, n)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case sem <- struct{}{}:
			defer func() { <-sem }()
			h.ServeHTTP(w, r)
		case <-r.Context().Done():
			// The client gave up while queued; nothing to write.
		}
	})
}

// --- read side ---

func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	s.queries.Add(1)
	schema := s.u.Schema()
	s.writeJSON(w, http.StatusOK, map[string]any{
		"name":  schema.Name(),
		"attrs": schema.Attrs(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.queries.Add(1)
	entities, liveTuples := s.u.Residency()
	cs := s.u.CacheStats()
	out := map[string]any{
		"entities":           entities,
		"live_tuples":        liveTuples,
		"appends":            s.appends.Load(),
		"tuples":             s.tuples.Load(),
		"queries":            s.queries.Load(),
		"errors":             s.errs.Load(),
		"uptime_ms":          time.Since(s.started).Milliseconds(),
		"max_in_flight":      s.opts.maxInFlight(),
		"buffered_bytes":     s.buffered.Load(),
		"max_buffered_bytes": s.opts.maxBufferedBytes(),
		"durable":            s.opts.Store != nil,
		// Read-path cache accounting: the settled-target memo (whole
		// stream) and the per-version verdict caches (summed over live
		// entities; hits/misses cumulative over each version chain).
		"settled_hits":    cs.SettledHits,
		"settled_misses":  cs.SettledMisses,
		"verdict_hits":    cs.VerdictHits,
		"verdict_misses":  cs.VerdictMisses,
		"verdict_entries": cs.VerdictEntries,
		// Append latency over the last stats.DefaultRingSize Apply
		// calls (absent until the first append): what one evidence
		// batch costs to absorb, excluding JSON and queueing time.
		"append_samples": s.appendLat.Len(),
	}
	if s.appendLat.Len() > 0 {
		ps := s.appendLat.Percentiles(50, 95, 99)
		out["append_p50_us"] = ps[0].Microseconds()
		out["append_p95_us"] = ps[1].Microseconds()
		out["append_p99_us"] = ps[2].Microseconds()
	}
	if s.opts.Store != nil {
		st := s.opts.Store.Stats()
		out["wal_bytes"] = st.WALBytes
		out["last_seq"] = st.LastSeq
		out["snapshot_seq"] = st.SnapshotSeq
		out["fsync"] = st.Fsync.String()
		out["snapshot_failures"] = s.snapFails.Load()
		if !st.LastSync.IsZero() {
			out["last_fsync_age_ms"] = time.Since(st.LastSync).Milliseconds()
		}
	}
	s.writeJSON(w, http.StatusOK, out)
}

// handleSnapshot is the admin route: checkpoint now. It quiesces the
// stream, writes a durable snapshot and truncates the covered log;
// 409 on a memory-only daemon. Concurrent requests serialise inside
// the store.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	s.queries.Add(1)
	if s.opts.Store == nil {
		s.error(w, http.StatusConflict, "this server is memory-only (no durable store attached); nothing to snapshot")
		return
	}
	seq, err := s.opts.Store.Checkpoint(s.u)
	if err != nil {
		s.error(w, http.StatusInternalServerError, "snapshot failed: "+err.Error())
		return
	}
	st := s.opts.Store.Stats()
	s.writeJSON(w, http.StatusOK, map[string]any{
		"snapshot_seq": seq,
		"wal_bytes":    st.WALBytes,
	})
}

// maybeSnapshot triggers the periodic checkpoint after SnapshotEvery
// successful appends. The checkpoint itself runs on its own goroutine
// (it quiesces the whole stream; the triggering request should not
// stall on it) and is single-flight — a slow snapshot swallows
// triggers instead of queueing them.
func (s *Server) maybeSnapshot() {
	st, every := s.opts.Store, s.opts.SnapshotEvery
	if st == nil || every <= 0 {
		return
	}
	if s.sinceSnap.Add(1) < int64(every) {
		return
	}
	if !s.snapping.CompareAndSwap(false, true) {
		return
	}
	s.sinceSnap.Store(0)
	go func() {
		defer s.snapping.Store(false)
		if _, err := st.Checkpoint(s.u); err != nil {
			s.snapFails.Add(1)
		}
	}()
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.queries.Add(1)
	keys := s.u.Keys()
	type entry struct {
		Key     string `json:"key"`
		Version int    `json:"version"`
	}
	entities := make([]entry, 0, len(keys))
	for _, k := range keys {
		entities = append(entities, entry{Key: k, Version: s.u.Version(k)})
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"count":    len(entities),
		"entities": entities,
	})
}

func (s *Server) handleEntity(w http.ResponseWriter, r *http.Request) {
	s.queries.Add(1)
	key := r.PathValue("key")
	res, ok := s.u.Query(key, 0, pipeline.AlgoTopKCT)
	if !ok {
		s.error(w, http.StatusNotFound, fmt.Sprintf("unknown entity %q", key))
		return
	}
	s.writeJSON(w, http.StatusOK, s.entityJSON(res))
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	s.queries.Add(1)
	key := r.PathValue("key")
	k := min(defaultTopK, s.opts.maxTopK())
	if kq := r.URL.Query().Get("k"); kq != "" {
		n, err := strconv.Atoi(kq)
		if err != nil || n <= 0 {
			s.error(w, http.StatusBadRequest, fmt.Sprintf("k must be a positive integer, got %q", kq))
			return
		}
		if n > s.opts.maxTopK() {
			s.error(w, http.StatusBadRequest,
				fmt.Sprintf("k %d exceeds this server's cap of %d", n, s.opts.maxTopK()))
			return
		}
		k = n
	}
	algo := pipeline.AlgoTopKCT
	if aq := r.URL.Query().Get("algo"); aq != "" {
		a, err := pipeline.ParseAlgorithm(aq)
		if err != nil {
			s.error(w, http.StatusBadRequest,
				fmt.Sprintf("unknown algo %q (want topkct, rankjoin or topkcth)", aq))
			return
		}
		algo = a
	}
	res, ok := s.u.Query(key, k, algo)
	if !ok {
		s.error(w, http.StatusNotFound, fmt.Sprintf("unknown entity %q", key))
		return
	}
	out := s.entityJSON(res)
	cands := make([]map[string]any, 0, len(res.Candidates))
	for _, c := range res.Candidates {
		cands = append(cands, map[string]any{
			"score": c.Score,
			"tuple": tupleJSON(c.Tuple),
		})
	}
	out["k"] = k
	out["candidates"] = cands
	out["stats"] = map[string]any{
		"checks":    res.Stats.Checks,
		"pops":      res.Stats.Pops,
		"generated": res.Stats.Generated,
	}
	s.writeJSON(w, http.StatusOK, out)
}

// --- write side ---

func (s *Server) handleAppendOne(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	// PathValue unescapes, so a %2F-encoded slash (or %2E-dotted
	// segment) would slip a key past the route-safety rule the batch
	// and seed paths enforce.
	if msg := badKey(key); msg != "" {
		s.error(w, http.StatusBadRequest, msg)
		return
	}
	var body struct {
		Tuples []map[string]any `json:"tuples"`
	}
	if !s.decodeJSON(w, r, &body) {
		return
	}
	if len(body.Tuples) == 0 {
		s.error(w, http.StatusBadRequest, "no tuples in request body")
		return
	}
	tuples, err := s.parseTuples(body.Tuples)
	if err != nil {
		s.error(w, http.StatusBadRequest, err.Error())
		return
	}
	s.appends.Add(1)
	applyStart := time.Now()
	results, _, err := s.u.Apply([]pipeline.Update{{Key: key, Tuples: tuples}})
	s.appendLat.Add(time.Since(applyStart))
	if err != nil {
		s.error(w, http.StatusBadRequest, err.Error())
		return
	}
	res := results[0]
	if absorbFailed(res) {
		// Absorption failed: the entity keeps its previous version and
		// the batch may be corrected and retried.
		s.error(w, http.StatusUnprocessableEntity, res.Err.Error())
		return
	}
	s.tuples.Add(int64(len(tuples)))
	s.maybeSnapshot()
	out := s.entityJSON(res)
	out["absorbed"] = len(tuples)
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleAppendBatch(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Updates []struct {
			Key    string           `json:"key"`
			Tuples []map[string]any `json:"tuples"`
		} `json:"updates"`
	}
	if !s.decodeJSON(w, r, &body) {
		return
	}
	if len(body.Updates) == 0 {
		s.error(w, http.StatusBadRequest, "no updates in request body")
		return
	}
	updates := make([]pipeline.Update, 0, len(body.Updates))
	perKey := make(map[string]int, len(body.Updates))
	for i, up := range body.Updates {
		// Keep the key space route-safe: a key the per-entity routes
		// cannot address must not be creatable here either. Empty keys
		// are also screened by Apply; screening here keeps the error
		// per-update instead of failing the whole batch opaquely.
		if msg := badKey(up.Key); msg != "" {
			s.error(w, http.StatusBadRequest, fmt.Sprintf("update %d: %s", i, msg))
			return
		}
		// Match the single-entity route: an update carrying no tuples
		// would register a permanent zero-evidence live entity.
		if len(up.Tuples) == 0 {
			s.error(w, http.StatusBadRequest, fmt.Sprintf("update %d: no tuples", i))
			return
		}
		tuples, err := s.parseTuples(up.Tuples)
		if err != nil {
			s.error(w, http.StatusBadRequest, fmt.Sprintf("update %d: %v", i, err))
			return
		}
		perKey[up.Key] += len(tuples)
		updates = append(updates, pipeline.Update{Key: up.Key, Tuples: tuples})
	}
	s.appends.Add(1)
	applyStart := time.Now()
	results, sum, err := s.u.Apply(updates)
	s.appendLat.Add(time.Since(applyStart))
	if err != nil {
		// An empty key fails the whole batch before any work starts.
		s.error(w, http.StatusBadRequest, err.Error())
		return
	}
	// Results come back merged by key in first-appearance order, each
	// carrying its key. Count a key's tuples as absorbed only when its
	// entity actually absorbed them.
	s.maybeSnapshot()
	out := make([]map[string]any, 0, len(results))
	for _, res := range results {
		if !absorbFailed(res) {
			s.tuples.Add(int64(perKey[res.Key]))
		}
		out = append(out, s.entityJSON(res))
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"results": out,
		"summary": sum.String(),
	})
}

// ValidateKey reports whether an entity key can enter the store
// through this server: the per-entity routes address exactly one path
// segment, so a key containing '/' — or the segments ServeMux
// canonicalizes away, "." and ".." — could be created but never
// queried, topk'd or appended to individually. The relaccd seed path
// applies the same rule, so every live key is reachable.
func ValidateKey(key string) error {
	switch {
	case key == "":
		return errors.New("key is empty")
	case key == "." || key == "..":
		return fmt.Errorf("key %q is a path segment the router canonicalizes away", key)
	case strings.Contains(key, "/"):
		return fmt.Errorf("key %q contains '/', which the per-entity routes cannot address", key)
	}
	return nil
}

// badKey is ValidateKey as a message ("" when valid), for handlers.
func badKey(key string) string {
	if err := ValidateKey(key); err != nil {
		return err.Error()
	}
	return ""
}

// absorbFailed reports whether a Result's error happened while
// ABSORBING the delta — the entity kept its previous version and the
// request should answer 422 so the caller retries — as opposed to a
// failure in the later candidate search, after the evidence was
// already committed (answer 200, error field set, retrying would
// duplicate the tuples). The discrimination mirrors the per-phase
// contract documented on pipeline.Updater.Apply: an absorb failure
// never reaches deduction, so Deduction is nil exactly then.
func absorbFailed(res pipeline.Result) bool {
	return res.Err != nil && res.Deduction == nil
}

// --- JSON plumbing ---

// entityJSON renders the per-entity verdict shared by the query and
// append responses; the absorb-vs-search failure distinction surfaces
// as an error string next to an otherwise-populated verdict (absorb
// failures answer 422 before reaching this). The version is the one
// the Result was DEDUCED on — not a re-read of the live entity, which
// a concurrent append may already have moved past — so a client can
// correlate each reply with its own delta.
func (s *Server) entityJSON(res pipeline.Result) map[string]any {
	out := map[string]any{
		"key":        res.Key,
		"version":    res.Version,
		"tuples":     res.Instance.Size(),
		"status":     res.Status(),
		"elapsed_us": res.Elapsed.Microseconds(),
	}
	if res.Err != nil {
		out["error"] = res.Err.Error()
	}
	if res.Deduction != nil {
		out["church_rosser"] = res.Deduction.CR
		if res.Deduction.CR {
			out["target"] = tupleJSON(res.Deduction.Target)
			out["complete"] = res.Deduction.Target.Complete()
		} else {
			out["conflict"] = res.Deduction.Conflict
		}
	}
	return out
}

// tupleJSON renders a tuple as attribute → JSON value.
func tupleJSON(t *model.Tuple) map[string]any {
	out := make(map[string]any, t.Schema().Arity())
	for a := 0; a < t.Schema().Arity(); a++ {
		out[t.Schema().Attr(a)] = valueJSON(t.At(a))
	}
	return out
}

func valueJSON(v model.Value) any {
	switch v.Kind() {
	case model.Null:
		return nil
	case model.String:
		return v.Str()
	case model.Int:
		return v.Int()
	case model.Float:
		// JSON has no NaN/±Inf, and json.Encoder would error AFTER the
		// 200 header is out; the model admits them (a "NaN" CSV cell
		// parses as a float), so degrade those to their string forms.
		if f := v.Float(); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
		return v.String()
	case model.Bool:
		return v.Bool()
	}
	return v.String()
}

// parseTuples builds schema tuples from JSON objects keyed by attribute
// name. JSON numbers arrive as json.Number (decodeJSON sets UseNumber)
// and go through model.Parse, so "3" is an int and "3.5" a float,
// exactly as the CSV reader decides; attributes left out stay null.
func (s *Server) parseTuples(rows []map[string]any) ([]*model.Tuple, error) {
	schema := s.u.Schema()
	out := make([]*model.Tuple, 0, len(rows))
	for i, row := range rows {
		t := model.NewTuple(schema)
		for attr, raw := range row {
			if schema.Index(attr) < 0 {
				return nil, fmt.Errorf("tuple %d: attribute %q is not in schema %s (want %v)",
					i, attr, schema.Name(), schema.Attrs())
			}
			v, err := jsonValue(raw)
			if err != nil {
				return nil, fmt.Errorf("tuple %d, attribute %q: %v", i, attr, err)
			}
			t.Set(attr, v)
		}
		out = append(out, t)
	}
	return out, nil
}

func jsonValue(raw any) (model.Value, error) {
	switch x := raw.(type) {
	case nil:
		return model.NullValue(), nil
	case string:
		return model.S(x), nil
	case bool:
		return model.B(x), nil
	case json.Number:
		return model.Parse(string(x)), nil
	}
	return model.Value{}, fmt.Errorf("unsupported JSON value %v (want string, number, boolean or null)", raw)
}

// decodeJSON decodes the request body — already buffered and
// size-capped by readBody — answering 400 on malformed input; numbers
// decode as json.Number so int/float intent survives.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(r.Body)
	dec.UseNumber()
	if err := dec.Decode(into); err != nil {
		s.error(w, http.StatusBadRequest, "malformed JSON body: "+err.Error())
		return false
	}
	return true
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// An encode error here means the client is gone mid-reply; there is
	// no one left to tell.
	_ = enc.Encode(v)
}

func (s *Server) error(w http.ResponseWriter, code int, msg string) {
	s.errs.Add(1)
	s.writeJSON(w, code, map[string]any{"error": msg})
}
