package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/rule"
	"repro/internal/ruledsl"
	"repro/internal/topk"
)

// newTestServer builds a serving layer over an empty update stream for
// a small schema with two currency rules: higher rnds is more current
// within one league, and the more current rnds carries the jersey.
func newTestServer(t *testing.T, cfg pipeline.Config) (*Server, *pipeline.Updater) {
	t.Helper()
	schema := model.MustSchema("player", "id", "league", "rnds", "jersey")
	parsed, err := ruledsl.Parse(
		"phi1: t1[league] = t2[league] , t1[rnds] < t2[rnds] -> t1 <= t2 @ rnds\n" +
			"phi2: t1 < t2 @ rnds -> t1 <= t2 @ jersey\n")
	if err != nil {
		t.Fatal(err)
	}
	rules, err := rule.NewSet(schema, nil, parsed...)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Rules = rules
	u, err := pipeline.NewUpdater(schema, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return New(u, Options{}), u
}

// do runs one request through the handler and decodes the JSON reply.
func do(t *testing.T, h http.Handler, method, path string, body any) (int, map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s %s: non-JSON reply %q", method, path, rec.Body.String())
	}
	return rec.Code, out
}

// TestAppendQueryRoundTrip: evidence appended over HTTP is absorbed,
// versioned and queryable, and a later delta re-deduces incrementally.
func TestAppendQueryRoundTrip(t *testing.T) {
	s, _ := newTestServer(t, pipeline.Config{})
	h := s.Handler()

	code, out := do(t, h, "POST", "/v1/entities/m1/evidence", map[string]any{
		"tuples": []map[string]any{
			{"id": "m1", "league": "east", "rnds": 30, "jersey": 45},
			{"id": "m1", "league": "east", "rnds": 80, "jersey": 23},
		},
	})
	if code != http.StatusOK {
		t.Fatalf("append: %d %v", code, out)
	}
	if out["status"] != "complete" || out["version"] != float64(0) || out["absorbed"] != float64(2) {
		t.Fatalf("append reply: %v", out)
	}
	target := out["target"].(map[string]any)
	if target["rnds"] != float64(80) || target["jersey"] != float64(23) {
		t.Fatalf("deduced target: %v", target)
	}

	code, out = do(t, h, "GET", "/v1/entities/m1", nil)
	if code != http.StatusOK || out["status"] != "complete" || out["version"] != float64(0) {
		t.Fatalf("query: %d %v", code, out)
	}
	if tg := out["target"].(map[string]any); tg["rnds"] != float64(80) {
		t.Fatalf("query target: %v", tg)
	}

	// A later delta advances the version and re-deduces incrementally.
	code, out = do(t, h, "POST", "/v1/entities/m1/evidence", map[string]any{
		"tuples": []map[string]any{
			{"id": "m1", "league": "east", "rnds": 100, "jersey": 7},
		},
	})
	if code != http.StatusOK || out["version"] != float64(1) {
		t.Fatalf("delta: %d %v", code, out)
	}
	if tg := out["target"].(map[string]any); tg["rnds"] != float64(100) || tg["jersey"] != float64(7) {
		t.Fatalf("re-deduced target: %v", tg)
	}

	code, out = do(t, h, "GET", "/v1/entities", nil)
	if code != http.StatusOK || out["count"] != float64(1) {
		t.Fatalf("list: %d %v", code, out)
	}
	ent := out["entities"].([]any)[0].(map[string]any)
	if ent["key"] != "m1" || ent["version"] != float64(1) {
		t.Fatalf("list entry: %v", ent)
	}

	code, out = do(t, h, "GET", "/v1/stats", nil)
	if code != http.StatusOK || out["entities"] != float64(1) ||
		out["appends"] != float64(2) || out["tuples"] != float64(3) {
		t.Fatalf("stats: %d %v", code, out)
	}
	// Both appends landed in the latency window; the percentiles are
	// ordered and real (a duration of 0µs is plausible on a fast box,
	// so only ordering and presence are asserted).
	if out["append_samples"] != float64(2) {
		t.Fatalf("append_samples: %v", out)
	}
	p50, ok50 := out["append_p50_us"].(float64)
	p95, ok95 := out["append_p95_us"].(float64)
	p99, ok99 := out["append_p99_us"].(float64)
	if !ok50 || !ok95 || !ok99 || p50 > p95 || p95 > p99 {
		t.Fatalf("append latency percentiles: %v", out)
	}
}

// TestStatsNoAppends: before any evidence arrives the latency window is
// empty — samples report 0 and no percentile fields are emitted (an
// invented 0µs p99 would read as "fast", not "no data").
func TestStatsNoAppends(t *testing.T) {
	s, _ := newTestServer(t, pipeline.Config{})
	code, out := do(t, s.Handler(), "GET", "/v1/stats", nil)
	if code != http.StatusOK || out["append_samples"] != float64(0) {
		t.Fatalf("stats: %d %v", code, out)
	}
	for _, k := range []string{"append_p50_us", "append_p95_us", "append_p99_us"} {
		if _, present := out[k]; present {
			t.Fatalf("%s emitted with no samples: %v", k, out)
		}
	}
}

// TestTopKQuery: an entity left incomplete serves candidates through
// /topk with per-request k and algo.
func TestTopKQuery(t *testing.T) {
	s, _ := newTestServer(t, pipeline.Config{})
	h := s.Handler()
	// Different leagues: phi1 never fires, rnds/jersey stay open.
	code, out := do(t, h, "POST", "/v1/entities/m2/evidence", map[string]any{
		"tuples": []map[string]any{
			{"id": "m2", "league": "east", "rnds": 10, "jersey": 1},
			{"id": "m2", "league": "west", "rnds": 20, "jersey": 2},
		},
	})
	if code != http.StatusOK || out["status"] != "incomplete" {
		t.Fatalf("append: %d %v", code, out)
	}
	for _, algo := range []string{"topkct", "rankjoin", "topkcth"} {
		code, out = do(t, h, "GET", "/v1/entities/m2/topk?k=2&algo="+algo, nil)
		if code != http.StatusOK {
			t.Fatalf("%s: %d %v", algo, code, out)
		}
		if out["k"] != float64(2) {
			t.Fatalf("%s echoed k: %v", algo, out["k"])
		}
		cands := out["candidates"].([]any)
		if len(cands) == 0 || len(cands) > 2 {
			t.Fatalf("%s: %d candidates", algo, len(cands))
		}
		best := cands[0].(map[string]any)
		if best["score"].(float64) <= 0 {
			t.Fatalf("%s best score: %v", algo, best)
		}
		if stats := out["stats"].(map[string]any); stats["checks"].(float64) <= 0 {
			t.Fatalf("%s stats: %v", algo, stats)
		}
	}
}

// TestErrorStatuses: unknown keys answer 404, malformed parameters and
// bodies 400, and none of them disturb the stream.
func TestErrorStatuses(t *testing.T) {
	s, u := newTestServer(t, pipeline.Config{})
	h := s.Handler()
	for _, tc := range []struct {
		method, path string
		body         any
		want         int
	}{
		{"GET", "/v1/entities/ghost", nil, http.StatusNotFound},
		{"GET", "/v1/entities/ghost/topk", nil, http.StatusNotFound},
		{"GET", "/v1/entities/ghost/topk?k=0", nil, http.StatusBadRequest},
		{"GET", "/v1/entities/ghost/topk?k=-3", nil, http.StatusBadRequest},
		{"GET", "/v1/entities/ghost/topk?k=nope", nil, http.StatusBadRequest},
		// Past the server's k cap (default 100): every candidate costs
		// a chase run, so an unbounded k is a denial of service.
		{"GET", "/v1/entities/ghost/topk?k=101", nil, http.StatusBadRequest},
		{"GET", "/v1/entities/ghost/topk?algo=quantum", nil, http.StatusBadRequest},
		{"POST", "/v1/entities/m9/evidence", map[string]any{"tuples": []map[string]any{}}, http.StatusBadRequest},
		{"POST", "/v1/entities/m9/evidence", map[string]any{
			"tuples": []map[string]any{{"no_such_attr": 1}}}, http.StatusBadRequest},
		{"POST", "/v1/evidence", map[string]any{"updates": []map[string]any{
			{"key": "", "tuples": []map[string]any{{"id": "x"}}}}}, http.StatusBadRequest},
		// '/' in a key would create an entity the per-entity routes
		// can never address (the {key} wildcard is one path segment) —
		// rejected on the batch route AND on the %2F-escaped single
		// route (PathValue unescapes), and a zero-tuple batch update
		// must not register a permanent empty entity.
		{"POST", "/v1/evidence", map[string]any{"updates": []map[string]any{
			{"key": "a/b", "tuples": []map[string]any{{"id": "x"}}}}}, http.StatusBadRequest},
		{"POST", "/v1/entities/a%2Fb/evidence", map[string]any{
			"tuples": []map[string]any{{"id": "x"}}}, http.StatusBadRequest},
		// '.' and '..' segments are canonicalized away by the router,
		// so such keys would be write-only too.
		{"POST", "/v1/evidence", map[string]any{"updates": []map[string]any{
			{"key": "..", "tuples": []map[string]any{{"id": "x"}}}}}, http.StatusBadRequest},
		{"POST", "/v1/evidence", map[string]any{"updates": []map[string]any{
			{"key": ".", "tuples": []map[string]any{{"id": "x"}}}}}, http.StatusBadRequest},
		{"POST", "/v1/evidence", map[string]any{"updates": []map[string]any{
			{"key": "empty", "tuples": []map[string]any{}}}}, http.StatusBadRequest},
	} {
		code, out := do(t, h, tc.method, tc.path, tc.body)
		if code != tc.want {
			t.Errorf("%s %s: %d (%v), want %d", tc.method, tc.path, code, out, tc.want)
		}
		if _, hasErr := out["error"]; !hasErr {
			t.Errorf("%s %s: reply carries no error field: %v", tc.method, tc.path, out)
		}
	}
	if u.Len() != 0 {
		t.Fatalf("error requests created %d entities", u.Len())
	}
}

// TestBatchEvidence: one POST /v1/evidence routes a keyed batch through
// a single Apply — merged by key, results in first-appearance order.
func TestBatchEvidence(t *testing.T) {
	s, u := newTestServer(t, pipeline.Config{})
	h := s.Handler()
	code, out := do(t, h, "POST", "/v1/evidence", map[string]any{
		"updates": []map[string]any{
			{"key": "a", "tuples": []map[string]any{{"id": "a", "league": "east", "rnds": 1, "jersey": 10}}},
			{"key": "b", "tuples": []map[string]any{{"id": "b", "league": "west", "rnds": 2, "jersey": 20}}},
			{"key": "a", "tuples": []map[string]any{{"id": "a", "league": "east", "rnds": 5, "jersey": 30}}},
		},
	})
	if code != http.StatusOK {
		t.Fatalf("batch: %d %v", code, out)
	}
	results := out["results"].([]any)
	if len(results) != 2 {
		t.Fatalf("batch produced %d results, want 2 (merged by key)", len(results))
	}
	first := results[0].(map[string]any)
	if first["key"] != "a" || first["tuples"] != float64(2) {
		t.Fatalf("first result: %v", first)
	}
	if u.Version("a") != 0 || u.Version("b") != 0 {
		t.Fatalf("versions after one batch: a=%d b=%d", u.Version("a"), u.Version("b"))
	}
}

// TestAbsorbVsSearchFailure pins the two failure phases of an append
// against genuine updater Results. Absorption failures answer 422 —
// but HTTP-built tuples always conform to the server's schema, so
// that phase is only reachable through a direct Apply; the
// discrimination (Result.AbsorbFailed) is pinned against the real Result it
// produces. Search failures ARE reachable over HTTP (here: a stream
// configured with an empty candidate domain for an open attribute,
// which RankJoinCT rejects) and must answer 200 with the evidence
// committed, the version advanced and the error reported.
func TestAbsorbVsSearchFailure(t *testing.T) {
	s, u := newTestServer(t, pipeline.Config{TopK: 2, Algo: pipeline.AlgoRankJoinCT,
		Pref: topk.Preference{Domains: map[string][]model.Value{"jersey": {}}}})
	h := s.Handler()

	// Phase 1, absorb failure: a wrong-schema tuple through Apply.
	other := model.MustSchema("other", "x")
	results, _, err := u.Apply([]pipeline.Update{
		{Key: "direct", Tuples: []*model.Tuple{model.MustTuple(other, model.I(1))}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].AbsorbFailed() {
		t.Fatalf("failed creation not classified as absorb failure: %+v", results[0])
	}

	// Phase 2, search failure over HTTP: leagues differ so rnds/jersey
	// stay open, and jersey's candidate domain is configured empty —
	// the search errors after the evidence is already in.
	code, out := do(t, h, "POST", "/v1/entities/m4/evidence", map[string]any{
		"tuples": []map[string]any{
			{"id": "m4", "league": "east", "rnds": 1},
			{"id": "m4", "league": "west", "rnds": 2},
		},
	})
	if code != http.StatusOK {
		t.Fatalf("search-failure append: %d %v", code, out)
	}
	if out["error"] == nil || out["status"] != "error" {
		t.Fatalf("search failure not reported: %v", out)
	}
	if out["version"] != float64(0) {
		t.Fatalf("evidence not committed on search failure: %v", out)
	}
	if v := u.Version("m4"); v != 0 {
		t.Fatalf("entity version = %d, want 0 (evidence absorbed)", v)
	}
	// A search failure is past absorption: the entity is live and
	// queryable (deduce-only answers without error).
	res, ok := u.Query("m4", 0, pipeline.AlgoTopKCT)
	if !ok || res.Err != nil {
		t.Fatalf("query after search failure: ok=%v err=%v", ok, res.Err)
	}
}

// TestAppendReportsDeductionVersion: each append reply carries the
// version its verdict was DEDUCED on, not a re-read of the live
// entity — so a sequence of appends yields 0, 1, 2, ... even if later
// deltas land before a reply is rendered.
func TestAppendReportsDeductionVersion(t *testing.T) {
	s, _ := newTestServer(t, pipeline.Config{})
	h := s.Handler()
	for want := 0; want < 3; want++ {
		code, out := do(t, h, "POST", "/v1/entities/m1/evidence", map[string]any{
			"tuples": []map[string]any{
				{"id": "m1", "league": "east", "rnds": want, "jersey": want},
			},
		})
		if code != http.StatusOK || out["version"] != float64(want) {
			t.Fatalf("append %d: code %d, version %v", want, code, out["version"])
		}
	}
}

// TestBodyLimitAndHealthz: an oversized POST answers 413 without
// disturbing the stream, and /healthz answers even when every
// MaxInFlight slot is occupied — liveness probes must not queue
// behind saturated serving routes.
func TestBodyLimitAndHealthz(t *testing.T) {
	s, u := newTestServer(t, pipeline.Config{})
	s.opts.MaxBodyBytes = 256
	h := s.Handler()
	var rows []map[string]any
	for i := 0; i < 64; i++ {
		rows = append(rows, map[string]any{"id": "big", "league": "east"})
	}
	code, out := do(t, h, "POST", "/v1/entities/big/evidence", map[string]any{"tuples": rows})
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d %v", code, out)
	}
	if u.Len() != 0 {
		t.Fatal("oversized body created an entity")
	}

	// A slow-body client parks in readBody, OUTSIDE the singleton
	// gate: with it mid-send, /healthz and a full append round-trip
	// must both complete — neither a gate slot nor the server is held
	// hostage by a client that trickles its body.
	s2, u2 := newTestServer(t, pipeline.Config{})
	s2.opts.MaxInFlight = 1
	h2 := s2.Handler()
	block := make(chan struct{})
	release := make(chan struct{})
	go func() {
		req := httptest.NewRequest("POST", "/v1/entities/slow/evidence", blockingReader{block, release})
		h2.ServeHTTP(httptest.NewRecorder(), req)
	}()
	<-block // the slow sender is mid-body
	code, out = do(t, h2, "GET", "/healthz", nil)
	if code != http.StatusOK || out["ok"] != true {
		t.Fatalf("healthz behind a slow sender: %d %v", code, out)
	}
	code, out = do(t, h2, "POST", "/v1/entities/fast/evidence", map[string]any{
		"tuples": []map[string]any{{"id": "fast", "league": "east", "rnds": 1, "jersey": 2}},
	})
	if code != http.StatusOK {
		t.Fatalf("append behind a slow sender: %d %v", code, out)
	}
	if u2.Version("fast") != 0 {
		t.Fatal("fast append did not land while the slow sender trickled")
	}
	close(release)
}

// blockingReader signals on first Read and then blocks until released,
// modelling a slow-body client stuck inside the JSON decoder.
type blockingReader struct {
	started chan struct{}
	release chan struct{}
}

func (r blockingReader) Read(p []byte) (int, error) {
	close(r.started)
	<-r.release
	return 0, io.EOF
}

// TestValueJSONDegenerateFloats: the model admits NaN/±Inf floats (a
// "NaN" CSV cell parses as one) but JSON does not, and an encode error
// would surface only after the 200 header is written — so valueJSON
// must degrade them to strings that the encoder accepts.
func TestValueJSONDegenerateFloats(t *testing.T) {
	for _, v := range []model.Value{
		model.F(math.NaN()), model.F(math.Inf(1)), model.F(math.Inf(-1)),
		model.F(1.5), model.I(3), model.S("x"), model.B(true), model.NullValue(),
	} {
		out := valueJSON(v)
		if _, err := json.Marshal(out); err != nil {
			t.Errorf("valueJSON(%s) = %v is not JSON-encodable: %v", v, out, err)
		}
	}
	if got := valueJSON(model.F(math.NaN())); got != "NaN" {
		t.Errorf("NaN rendered as %v", got)
	}
	if got := valueJSON(model.F(2.5)); got != 2.5 {
		t.Errorf("finite float rendered as %v", got)
	}
}

// TestConcurrencyLimit: the gate never lets more than MaxInFlight
// requests into the handler at once, and a client that gives up while
// queued is released without ever entering it.
func TestConcurrencyLimit(t *testing.T) {
	var inside, peak, served atomic.Int64
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inside.Add(1)
		defer inside.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		served.Add(1)
	})
	h := withLimit(inner, 3)
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
		}()
	}
	wg.Wait()
	if served.Load() != 24 {
		t.Fatalf("served %d of 24", served.Load())
	}
	if p := peak.Load(); p > 3 {
		t.Fatalf("peak concurrency %d exceeds the limit", p)
	}

	// Occupy the only slot, then enqueue a request whose client is
	// already gone: it must return without entering the handler.
	block := make(chan struct{})
	entered := make(chan struct{})
	var bounced atomic.Int64
	blocking := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		bounced.Add(1)
		close(entered)
		<-block
	})
	h = withLimit(blocking, 1)
	go h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil).WithContext(ctx))
	close(block)
	if bounced.Load() != 1 {
		t.Fatalf("cancelled request entered the handler (%d entries)", bounced.Load())
	}
}

// TestConcurrentAppendersAndReaders is the serving-layer race test: on
// one sharded updater, producers stream evidence to disjoint keys over
// HTTP while readers hammer every read route. Under -race (CI) this
// proves the whole stack is data-race free; afterwards every key must
// have absorbed every delta, proving disjoint producers made progress
// independently (the per-key version count equals the per-key append
// count — no append waited forever or was lost behind another key).
func TestConcurrentAppendersAndReaders(t *testing.T) {
	s, u := newTestServer(t, pipeline.Config{TopK: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const producers = 6
	const deltas = 5
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", p)
			for d := 0; d < deltas; d++ {
				body, _ := json.Marshal(map[string]any{
					"tuples": []map[string]any{{
						"id": key, "league": "east", "rnds": d * 10, "jersey": d,
					}},
				})
				resp, err := http.Post(
					ts.URL+"/v1/entities/"+key+"/evidence", "application/json",
					bytes.NewReader(body))
				if err != nil {
					t.Errorf("producer %d: %v", p, err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("producer %d delta %d: status %d", p, d, resp.StatusCode)
					return
				}
			}
		}(p)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			paths := []string{"/v1/entities", "/v1/stats", "/v1/schema",
				fmt.Sprintf("/v1/entities/k%d", r),
				fmt.Sprintf("/v1/entities/k%d/topk?k=1", r)}
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, p := range paths {
					resp, err := http.Get(ts.URL + p)
					if err != nil {
						t.Errorf("reader: %v", err)
						return
					}
					resp.Body.Close()
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}
	if u.Len() != producers {
		t.Fatalf("stream holds %d entities, want %d", u.Len(), producers)
	}
	for p := 0; p < producers; p++ {
		key := fmt.Sprintf("k%d", p)
		if v := u.Version(key); v != deltas-1 {
			t.Fatalf("entity %s absorbed %d deltas, want %d", key, v+1, deltas)
		}
	}
}
