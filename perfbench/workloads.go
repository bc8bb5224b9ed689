package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/csvio"
	"repro/internal/er"
	"repro/internal/ingest"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/rule"
	"repro/internal/server"
	"repro/internal/topk"
)

// Fixed workload sizes and rates. The serve rates are about half of the
// highest rate the ladder (-ladder, see ladder.json) found meeting the
// route's p99 limit at GOMAXPROCS 2.
const (
	setupRepeats   = 5
	ingestEntities = 2 * medEntities
	evidenceRate   = 370.0
	queryRate      = 62.0
	recoveries     = 3
	maxChecks      = 100_000 // relaccd's default -max-checks
	sampleEvery    = 10      // serve-query: check every 10th query against the oracle
)

// spec is the schema, master data and rules as the programs load them
// from the generated files.
type spec struct {
	schema *model.Schema
	master *model.MasterRelation
	rules  *rule.Set
}

// loadSpec reads the schema from the relation header.
func loadSpec(d *dataset) (*spec, error) {
	it, err := csvio.NewTupleIterator(bytes.NewReader(d.header), "relation")
	if err != nil {
		return nil, err
	}
	return specOn(it.Schema(), d)
}

// specOn reads the master relation and parses the rules against schema.
func specOn(schema *model.Schema, d *dataset) (*spec, error) {
	im, err := csvio.ReadMaster(bytes.NewReader(d.master), "master")
	if err != nil {
		return nil, err
	}
	rs, err := core.ParseRules(string(d.rules), schema, im.Schema())
	if err != nil {
		return nil, err
	}
	return &spec{schema: schema, master: im, rules: rs}, nil
}

// onSchema rebuilds a generated tuple over s by attribute position.
func onSchema(t *model.Tuple, s *model.Schema) *model.Tuple {
	nt := model.NewTuple(s)
	for a := 0; a < s.Arity(); a++ {
		nt.SetAt(a, t.At(a))
	}
	return nt
}

func (sp *spec) updaterConfig() pipeline.Config {
	return pipeline.Config{Master: sp.master, Rules: sp.rules, Pref: topk.Preference{MaxChecks: maxChecks}}
}

// --- ingest ---

// runIngest times relacc batch, the CLI's default deduce-only batch, over
// a run-length sorted Med-shaped relation, repeated until the run's
// seconds are spent. Its oracle: out.csv is byte-identical to an
// in-process materialized pipeline.Run.
func runIngest(e *env) (*outcome, error) {
	o := newOutcome()
	d, err := newDataset(e.seed, ingestEntities)
	if err != nil {
		return nil, err
	}
	f, err := d.write(filepath.Join(e.work, "in"))
	if err != nil {
		return nil, err
	}
	want, err := expectedIngest(d)
	if err != nil {
		return nil, err
	}
	out := filepath.Join(e.work, "out.csv")
	args := func(data string, extra ...string) []string {
		return append([]string{"batch", "-data", data, "-master", f.master, "-rules", f.rules,
			"-stream", "on", "-by", "name", "-workers", "2", "-topk", "0", "-o", out}, extra...)
	}
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		pr, err := runTimed(e.relacc(), args(f.header)...)
		if err != nil {
			return nil, err
		}
		setups = append(setups, pr.wall.Seconds())
	}
	var rates, goodputs, cpus, rss, lat, walls []float64
	start := time.Now()
	for rep := 0; rep < 3 || time.Since(start).Seconds() < e.seconds; rep++ {
		pr, err := runTimed(e.relacc(), args(f.relation, "-v")...)
		if err != nil {
			return nil, err
		}
		wall := pr.wall
		walls = append(walls, wall.Seconds())
		rates = append(rates, float64(d.totalRows)/wall.Seconds())
		cpus = append(cpus, 1000*pr.cpu/float64(len(d.ds.Entities)))
		rss = append(rss, pr.rssMB)
		ok := 0
		for _, line := range strings.Split(string(pr.stdout), "\n") {
			if !strings.HasPrefix(line, "entity ") {
				continue
			}
			o.attempted++
			el, perr := entityElapsed(line)
			if perr != nil || strings.Contains(line, " error ") {
				o.failed++
				o.problem("entity line %q", line)
				continue
			}
			lat = append(lat, ms(el))
			if ms(el) <= routeLimitMS[routeQuery] {
				ok++
			}
		}
		goodputs = append(goodputs, float64(ok)/wall.Seconds())
		got, err := os.ReadFile(out)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(got, want) {
			o.failed++
			o.problem("ingest rep %d: out.csv (%d bytes) differs from in-process pipeline.Run (%d bytes)", rep, len(got), len(want))
		}
	}
	if want := len(d.ds.Entities) * len(walls); o.attempted != want {
		o.problem("relacc batch -v printed %d entity lines, want %d", o.attempted, want)
	}
	if err := o.latencies("entity", lat); err != nil {
		return nil, err
	}
	o.metrics["setup_s"] = median(setups)
	o.metrics["goodput_rps"] = median(goodputs)
	o.metrics["cpu_ms_per_op"] = median(cpus)
	o.metrics["peak_rss_mb"] = median(rss)
	o.opWall = median(walls) * 2 // two workers
	o.notes = append(o.notes, fmt.Sprintf("ingest: rows_per_s %.1f; %d rows, %d entities, %d batch runs, median wall %.3fs",
		median(rates), d.totalRows, len(d.ds.Entities), len(walls), median(walls)))
	o.replay = func(t *tracer) (*layers, error) { return replayIngest(t, d) }
	return o, nil
}

// entityElapsed parses the per-entity time relacc batch -v prints at the
// end of an entity line: "entity 12 [4 tuples]  complete ...  (1.234ms)".
func entityElapsed(line string) (time.Duration, error) {
	i := strings.LastIndex(line, " (")
	if i < 0 || !strings.HasSuffix(line, ")") {
		return 0, fmt.Errorf("no elapsed time")
	}
	return time.ParseDuration(line[i+2 : len(line)-1])
}

// latencies prints p50, p95 and p99 of per-op latencies in ms and keeps
// p99 for the ladder. None is a checked metric: on a shared 2-core host
// the tails swung two- to five-fold between runs of one seed, set by the
// one to three stalls a run happens to meet, and serve-query's p50 moved
// 1.7 to 3.5 ms when the host was contended.
func (o *outcome) latencies(what string, lat []float64) error {
	ps := map[float64]float64{}
	for _, p := range []float64{50, 95, 99} {
		v, err := percentile(lat, p)
		if err != nil {
			return fmt.Errorf("%s latency: %w", what, err)
		}
		ps[p] = v
	}
	o.p99 = ps[99]
	o.samples[what+".latency"] = len(lat)
	o.notes = append(o.notes, fmt.Sprintf("%s latency: p50 %.3f ms, p95 %.3f ms, p99 %.3f ms (n=%d)", what, ps[50], ps[95], ps[99], len(lat)))
	return nil
}

// expectedIngest is the oracle for relacc batch -o: the materialized
// ReadRelation → GroupBy → pipeline.Run path in-process, settled targets
// written as CSV.
func expectedIngest(d *dataset) ([]byte, error) {
	schema, tuples, err := csvio.ReadRelation(bytes.NewReader(d.relation), "relation")
	if err != nil {
		return nil, err
	}
	sp, err := specOn(schema, d)
	if err != nil {
		return nil, err
	}
	entities, err := er.GroupBy(tuples, schema, "name")
	if err != nil {
		return nil, err
	}
	results, _, err := pipeline.Run(entities, pipeline.Config{Master: sp.master, Rules: sp.rules, Workers: 2})
	if err != nil {
		return nil, err
	}
	var settled []*model.Tuple
	for _, r := range results {
		if r.Err == nil && r.Status() == "complete" {
			settled = append(settled, r.Deduction.Target)
		}
	}
	return csvBytes(schema, settled)
}

// --- serve workloads ---

// startSetup starts the daemon setupRepeats times, each in a fresh
// state from fresh(i), and keeps the last one running; the others drain
// and exit. It returns that daemon and the median exec-to-/healthz time.
func startSetup(e *env, args func(i int) []string) (*daemon, float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		d, err := startDaemon(e.relaccd(), args(i), e.daemonEnv())
		if err != nil {
			return nil, 0, err
		}
		setups = append(setups, d.ready.Seconds())
		if i == setupRepeats-1 {
			return d, median(setups), nil
		}
		if err := d.stop(); err != nil {
			return nil, 0, err
		}
	}
}

// entityReply is the part of a relaccd entity response the oracles read.
type entityReply struct {
	Version    int              `json:"version"`
	Status     string           `json:"status"`
	Target     map[string]any   `json:"target"`
	Candidates []map[string]any `json:"candidates"`
}

// canon renders the verdict parts of a reply canonically for comparison.
func (r *entityReply) canon(withCandidates bool) string {
	v := map[string]any{"status": r.Status, "target": r.Target}
	if withCandidates {
		v["candidates"] = r.Candidates
	}
	b, _ := json.Marshal(v)
	// A second round trip makes int64 and float64 numbers print alike.
	var g any
	_ = json.Unmarshal(b, &g)
	b, _ = json.Marshal(g)
	return string(b)
}

// replyOf renders an in-process Result as relaccd would answer it.
func replyOf(r pipeline.Result) *entityReply {
	out := &entityReply{Version: r.Version, Status: r.Status()}
	if r.Deduction != nil && r.Deduction.CR {
		out.Target = tupleJSON(r.Deduction.Target)
	}
	out.Candidates = []map[string]any{}
	for _, c := range r.Candidates {
		out.Candidates = append(out.Candidates, map[string]any{"score": c.Score, "tuple": tupleJSON(c.Tuple)})
	}
	return out
}

func tupleJSON(t *model.Tuple) map[string]any {
	out := map[string]any{}
	s := t.Schema()
	for a := 0; a < s.Arity(); a++ {
		v := t.At(a)
		switch v.Kind() {
		case model.Null:
			out[s.Attr(a)] = nil
		case model.String:
			out[s.Attr(a)] = v.Str()
		case model.Int:
			out[s.Attr(a)] = v.Int()
		default:
			out[s.Attr(a)] = v.String()
		}
	}
	return out
}

// runServeEvidence appends every tuple of a Med-shaped relation, one per
// POST, to a durable relaccd seeded from a header-only CSV, then kill -9s
// it and restarts it on the same data directory. Oracles: each key's
// version is its acknowledged appends minus one, and its verdict equals
// a fresh batch deduction of its acknowledged tuples, before the kill and
// after the restart.
func runServeEvidence(e *env) (*outcome, error) {
	o := newOutcome()
	o.rate = e.rate
	if o.rate == 0 {
		o.rate = evidenceRate
	}
	// Size the relation to fill the run: Med averages ~4.5 tuples per entity.
	n := int(math.Ceil(o.rate * e.seconds / 4.5))
	d, err := newDataset(e.seed, n)
	if err != nil {
		return nil, err
	}
	f, err := d.write(filepath.Join(e.work, "in"))
	if err != nil {
		return nil, err
	}
	ops := evidenceOps(d, e.seed)
	dataDir := func(i int) string { return filepath.Join(e.work, fmt.Sprintf("data%d", i)) }
	args := func(i int) []string {
		return []string{"-data", f.header, "-master", f.master, "-rules", f.rules, "-by", "name",
			"-data-dir", dataDir(i), "-fsync", "always", "-topk", "0"}
	}
	dmn, setup, err := startSetup(e, args)
	if err != nil {
		return nil, err
	}
	defer func() {
		if dmn != nil {
			dmn.kill()
		}
	}()
	o.metrics["setup_s"] = setup

	run, err := measuredLoad(o, dmn, ops)
	if err != nil {
		return nil, err
	}
	acked := map[string][]*model.Tuple{}
	var lat []float64
	good := 0
	for i := range ops {
		r := &run.results[i]
		o.attempted++
		var rep entityReply
		if r.err != nil || r.status != http.StatusOK || json.Unmarshal(r.body, &rep) != nil {
			o.failed++
			o.problem("append %d to %s: status %d, err %v: %.200s", i, ops[i].key, r.status, r.err, r.body)
			continue
		}
		key := ops[i].key
		if rep.Version != len(acked[key]) {
			o.failed++
			o.problem("append %d to %s answered version %d after %d acknowledged appends", i, key, rep.Version, len(acked[key]))
		}
		acked[key] = append(acked[key], ops[i].tuple)
		lat = append(lat, ms(r.latency()))
		if ms(r.latency()) <= routeLimitMS[routeAppend] {
			good++
		}
		o.opWall += (r.done - r.sent).Seconds()
	}
	if err := o.latencies("append", lat); err != nil {
		return nil, err
	}
	o.metrics["goodput_rps"] = float64(good) / run.elapsed.Seconds()
	if o.metrics["peak_rss_mb"], err = dmn.peakRSSMB(); err != nil {
		return nil, err
	}

	want, err := expectedVerdicts(d, acked)
	if err != nil {
		return nil, err
	}
	o.failed += checkVerdicts(o, dmn.base, acked, want, "before kill -9")
	var recov []float64
	for i := 0; i < recoveries; i++ {
		dmn.kill()
		dmn = nil
		if dmn, err = startDaemon(e.relaccd(), args(setupRepeats-1), e.daemonEnv()); err != nil {
			return nil, err
		}
		recov = append(recov, dmn.ready.Seconds())
	}
	o.failed += checkVerdicts(o, dmn.base, acked, want, "after restart")
	err = dmn.stop()
	dmn = nil
	if err != nil {
		return nil, err
	}
	rows := 0
	for _, ts := range acked {
		rows += len(ts)
	}
	o.samples["recovery_s"] = len(recov)
	o.notes = append(o.notes, fmt.Sprintf("serve-evidence: %d appends to %d entities; recovery_s %.4f (median of %d restarts after kill -9), %.1f rows/s replayed",
		len(ops), len(acked), median(recov), len(recov), float64(rows)/median(recov)))
	o.replay = func(t *tracer) (*layers, error) { return replayEvidence(t, e, d, ops) }
	return o, nil
}

// measuredLoad runs the open loop against the daemon and records the
// daemon's CPU time per request over it.
func measuredLoad(o *outcome, dmn *daemon, ops []op) (*loadRun, error) {
	before, err := dmn.cpuSeconds()
	if err != nil {
		return nil, err
	}
	run := openLoop(dmn.base, ops, o.rate, 2)
	after, err := dmn.cpuSeconds()
	if err != nil {
		return nil, err
	}
	o.load = run
	o.metrics["cpu_ms_per_op"] = 1000 * (after - before) / float64(len(ops))
	return run, nil
}

// expectedVerdicts deduces each key's acknowledged tuples as a fresh
// batch, rendered as relaccd renders an entity.
func expectedVerdicts(d *dataset, acked map[string][]*model.Tuple) (map[string]string, error) {
	sp, err := loadSpec(d)
	if err != nil {
		return nil, err
	}
	keys := sortedKeys(acked)
	entities := make([]*model.EntityInstance, len(keys))
	for i, k := range keys {
		ie := model.NewEntityInstance(sp.schema)
		for _, t := range acked[k] {
			ie.MustAdd(onSchema(t, sp.schema))
		}
		entities[i] = ie
	}
	results, _, err := pipeline.Run(entities, pipeline.Config{Master: sp.master, Rules: sp.rules})
	if err != nil {
		return nil, err
	}
	want := make(map[string]string, len(keys))
	for i, r := range results {
		want[keys[i]] = replyOf(r).canon(false)
	}
	return want, nil
}

// checkVerdicts compares every key's live version and verdict with the
// oracle; it returns the number of keys that disagree (a lost
// acknowledged tuple shows as a short version).
func checkVerdicts(o *outcome, base string, acked map[string][]*model.Tuple, want map[string]string, when string) int {
	client := &http.Client{Timeout: 30 * time.Second}
	bad := 0
	for _, key := range sortedKeys(acked) {
		status, body, err := get(client, base+"/v1/entities/"+key)
		var rep entityReply
		if err != nil || status != http.StatusOK || json.Unmarshal(body, &rep) != nil {
			bad++
			o.problem("%s: GET %s: status %d, err %v", when, key, status, err)
			continue
		}
		if rep.Version != len(acked[key])-1 {
			bad++
			o.problem("%s: %s at version %d, want %d (acknowledged appends minus one)", when, key, rep.Version, len(acked[key])-1)
			continue
		}
		if got := rep.canon(false); got != want[key] {
			bad++
			o.problem("%s: %s verdict %.300s, fresh batch deduction gives %.300s", when, key, got, want[key])
		}
	}
	return bad
}

// runServeQuery drives a memory-only relaccd seeded with the full Med
// relation minus each multi-tuple entity's newest tuple with 90% top-k
// queries and 10% appends of a held-back tuple, Zipf(1.1) over the
// incomplete entities. Oracle: a seeded sample of (key, version, k)
// answers matches in-process Updater.Query.
func runServeQuery(e *env) (*outcome, error) {
	o := newOutcome()
	o.rate = e.rate
	if o.rate == 0 {
		o.rate = queryRate
	}
	d, err := newDataset(e.seed, medEntities)
	if err != nil {
		return nil, err
	}
	f, err := d.write(filepath.Join(e.work, "in"))
	if err != nil {
		return nil, err
	}
	q, err := newQueryMix(d)
	if err != nil {
		return nil, err
	}
	seedPath := filepath.Join(e.work, "in", "seed.csv")
	if err := os.WriteFile(seedPath, q.seedCSV, 0o644); err != nil {
		return nil, err
	}
	ops := queryOps(q, int(o.rate*e.seconds), e.seed)
	args := func(int) []string {
		return []string{"-data", seedPath, "-master", f.master, "-rules", f.rules, "-by", "name", "-topk", "0"}
	}
	dmn, setup, err := startSetup(e, args)
	if err != nil {
		return nil, err
	}
	defer dmn.kill()
	o.metrics["setup_s"] = setup
	o.notes = append(o.notes, fmt.Sprintf("serve-query: seed of %d rows at %.1f rows/s", q.seedRows, float64(q.seedRows)/setup))

	run, err := measuredLoad(o, dmn, ops)
	if err != nil {
		return nil, err
	}
	if o.metrics["peak_rss_mb"], err = dmn.peakRSSMB(); err != nil {
		return nil, err
	}
	if err := dmn.stop(); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(e.seed))
	var qlat, alat []float64
	good := 0
	type sample struct {
		i   int
		rep entityReply
	}
	var samples []sample
	appended := map[string]bool{}
	for i := range ops {
		r := &run.results[i]
		o.attempted++
		var rep entityReply
		if r.err != nil || r.status != http.StatusOK || json.Unmarshal(r.body, &rep) != nil {
			o.failed++
			o.problem("op %d on %s: status %d, err %v: %.200s", i, ops[i].key, r.status, r.err, r.body)
			continue
		}
		l := ms(r.latency())
		o.opWall += (r.done - r.sent).Seconds()
		if l <= routeLimitMS[ops[i].route] {
			good++
		}
		if ops[i].route == routeAppend {
			alat = append(alat, l)
			appended[ops[i].key] = true
			if rep.Version != 1 {
				o.failed++
				o.problem("append %d to %s answered version %d, want 1", i, ops[i].key, rep.Version)
			}
			continue
		}
		qlat = append(qlat, l)
		if rng.Intn(sampleEvery) == 0 {
			samples = append(samples, sample{i, rep})
		}
	}
	if err := o.latencies("query", qlat); err != nil {
		return nil, err
	}
	o.metrics["goodput_rps"] = float64(good) / run.elapsed.Seconds()
	o.samples["query.oracle"] = len(samples)
	if a50, err := percentile(alat, 50); err == nil {
		note := fmt.Sprintf("append latency: p50 %.3f ms", a50)
		if a95, err := percentile(alat, 95); err == nil {
			note += fmt.Sprintf(", p95 %.3f ms", a95)
		}
		o.notes = append(o.notes, note+fmt.Sprintf(" (n=%d)", len(alat)))
	}

	// Oracle: one in-process updater at version 0 (the seed) and one with
	// every acknowledged append applied (version 1 of those keys).
	var u [2]*pipeline.Updater
	for v := range u {
		if u[v], err = seededUpdater(d, q.seedCSV); err != nil {
			return nil, err
		}
	}
	var ups []pipeline.Update
	for _, key := range sortedKeys(appended) {
		ups = append(ups, pipeline.Update{Key: key, Tuples: []*model.Tuple{onSchema(q.heldBack[key], u[1].Schema())}})
	}
	if _, _, err := u[1].Apply(ups); err != nil {
		return nil, err
	}
	for _, s := range samples {
		op := &ops[s.i]
		if s.rep.Version < 0 || s.rep.Version > 1 {
			o.failed++
			o.problem("query %d on %s answered version %d", s.i, op.key, s.rep.Version)
			continue
		}
		res, ok := u[s.rep.Version].Query(op.key, op.k, pipeline.AlgoTopKCT)
		if !ok {
			o.failed++
			o.problem("oracle has no entity %s", op.key)
			continue
		}
		if got, want := s.rep.canon(true), replyOf(res).canon(true); got != want {
			o.failed++
			o.problem("query %d (%s, version %d, k=%d): relaccd %.300s, Updater.Query %.300s", s.i, op.key, s.rep.Version, op.k, got, want)
		}
	}
	o.replay = func(t *tracer) (*layers, error) { return replayQuery(t, d, q, ops) }
	return o, nil
}

// seededUpdater builds an updater for sp and seeds it from a CSV exactly
// as relaccd does.
func seededUpdater(d *dataset, seedCSV []byte) (*pipeline.Updater, error) {
	it, err := csvio.NewTupleIterator(bytes.NewReader(seedCSV), "seed")
	if err != nil {
		return nil, err
	}
	sp, err := specOn(it.Schema(), d)
	if err != nil {
		return nil, err
	}
	u, err := pipeline.NewUpdater(it.Schema(), sp.updaterConfig())
	if err != nil {
		return nil, err
	}
	_, err = ingest.SeedUpdater(u, it, seedOptions())
	return u, err
}

func seedOptions() ingest.SeedOptions {
	return ingest.SeedOptions{
		By: "name",
		KeyOf: func(v model.Value) (string, error) {
			k := v.String()
			return k, server.ValidateKey(k)
		},
	}
}
