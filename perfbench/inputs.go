package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/csvio"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/ruledsl"
)

// medEntities is the paper's Med scale: 2700 entities, ~10K tuples and a
// master relation of ~1800 rows.
const medEntities = 2700

// dataset is one seeded Med-shaped input: the generated relation plus its
// master relation and rules rendered as the files the programs read.
type dataset struct {
	ds        *gen.Dataset
	rules     []byte // ruledsl text, one rule per line
	master    []byte // master relation CSV
	header    []byte // relation CSV header row only
	relation  []byte // every tuple, entity by entity (run-length sorted on name)
	totalRows int
}

// newDataset generates a Med-shaped dataset of n entities from seed.
func newDataset(seed int64, n int) (*dataset, error) {
	cfg := gen.MedConfig()
	cfg.Seed = seed
	cfg.NumEntities = n
	ds := gen.Generate(cfg)
	d := &dataset{ds: ds, rules: []byte(ruledsl.Format(ds.Rules.Rules()))}
	var err error
	if d.master, err = csvBytes(ds.Master.Schema(), ds.Master.Tuples()); err != nil {
		return nil, err
	}
	if d.header, err = csvBytes(ds.Schema, nil); err != nil {
		return nil, err
	}
	var all []*model.Tuple
	for _, e := range ds.Entities {
		all = append(all, e.Instance.Tuples()...)
	}
	d.totalRows = len(all)
	if d.relation, err = csvBytes(ds.Schema, all); err != nil {
		return nil, err
	}
	return d, nil
}

func csvBytes(s *model.Schema, tuples []*model.Tuple) ([]byte, error) {
	var b bytes.Buffer
	if err := csvio.WriteRelation(&b, s, tuples); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// files are the paths of a dataset written into a directory.
type files struct {
	rules, master, header, relation string
}

func (d *dataset) write(dir string) (files, error) {
	f := files{
		rules:    filepath.Join(dir, "rules.txt"),
		master:   filepath.Join(dir, "master.csv"),
		header:   filepath.Join(dir, "header.csv"),
		relation: filepath.Join(dir, "relation.csv"),
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return f, err
	}
	for path, data := range map[string][]byte{f.rules: d.rules, f.master: d.master, f.header: d.header, f.relation: d.relation} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return f, err
		}
	}
	return f, nil
}

// Routes a request can take; each has its own p99 latency limit.
const (
	routeAppend = iota
	routeQuery
)

// routeLimitMS is the p99 latency limit of each route, in milliseconds;
// goodput counts only responses within it.
var routeLimitMS = [...]float64{routeAppend: 20, routeQuery: 100}

// op is one request of a serve workload.
type op struct {
	route int
	key   string
	k     int          // top-k size (queries)
	tuple *model.Tuple // evidence tuple (appends)
	prev  int          // appends: index of the previous append on the same key, -1 if none
}

// request renders the op as an HTTP method, path and body.
func (o *op) request() (method, path string, body []byte) {
	if o.route == routeQuery {
		return "GET", fmt.Sprintf("/v1/entities/%s/topk?k=%d", o.key, o.k), nil
	}
	return "POST", "/v1/entities/" + o.key + "/evidence", evidenceBody(o.tuple)
}

// evidenceBody is the JSON body of a one-tuple append: attributes by
// name, nulls left out, ints as JSON numbers.
func evidenceBody(t *model.Tuple) []byte {
	var b bytes.Buffer
	b.WriteString(`{"tuples":[{`)
	first := true
	s := t.Schema()
	for a := 0; a < s.Arity(); a++ {
		v := t.At(a)
		if v.IsNull() {
			continue
		}
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%q:", s.Attr(a))
		if v.Kind() == model.Int {
			fmt.Fprintf(&b, "%d", v.Int())
		} else {
			fmt.Fprintf(&b, "%q", v.String())
		}
	}
	b.WriteString(`}]}`)
	return b.Bytes()
}

// linkKeys sets each append's prev to the previous append on the same
// key, so the load generator keeps every entity's evidence in order.
// Queries are not linked: each reply names the version it read.
func linkKeys(ops []op) {
	last := map[string]int{}
	for i := range ops {
		ops[i].prev = -1
		if ops[i].route != routeAppend {
			continue
		}
		if j, ok := last[ops[i].key]; ok {
			ops[i].prev = j
		}
		last[ops[i].key] = i
	}
}

// evidenceOps interleaves every tuple of the dataset into one-tuple
// appends in a seeded order that keeps each entity's own tuple order: a
// uniform shuffle of entity slots, the i-th slot of an entity taking its
// i-th tuple.
func evidenceOps(d *dataset, seed int64) []op {
	var slots []int
	for e, ent := range d.ds.Entities {
		for i := 0; i < ent.Instance.Size(); i++ {
			slots = append(slots, e)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	next := make([]int, len(d.ds.Entities))
	ops := make([]op, len(slots))
	for i, e := range slots {
		ent := d.ds.Entities[e]
		ops[i] = op{route: routeAppend, key: ent.ID, tuple: ent.Instance.Tuple(next[e])}
		next[e]++
	}
	linkKeys(ops)
	return ops
}

// queryMix is the serve-query input: the seed relation (every tuple but
// each multi-tuple entity's newest), the held-back tuples, and the keys
// whose seeded target is incomplete.
type queryMix struct {
	seedCSV    []byte
	seedRows   int
	heldBack   map[string]*model.Tuple
	incomplete []string
}

// newQueryMix splits d into seed and held-back tuples and deduces every
// seeded entity once to find the incomplete targets.
func newQueryMix(d *dataset) (*queryMix, error) {
	q := &queryMix{heldBack: map[string]*model.Tuple{}}
	var seed []*model.Tuple
	var entities []*model.EntityInstance
	for _, e := range d.ds.Entities {
		ts := e.Instance.Tuples()
		if len(ts) > 1 {
			q.heldBack[e.ID] = ts[len(ts)-1]
			ts = ts[:len(ts)-1]
		}
		seed = append(seed, ts...)
		ie := model.NewEntityInstance(d.ds.Schema)
		for _, t := range ts {
			ie.MustAdd(t)
		}
		entities = append(entities, ie)
	}
	q.seedRows = len(seed)
	var err error
	if q.seedCSV, err = csvBytes(d.ds.Schema, seed); err != nil {
		return nil, err
	}
	results, _, err := pipeline.Run(entities, pipeline.Config{Master: d.ds.Master, Rules: d.ds.Rules})
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		if r.Err == nil && r.Deduction.CR && !r.Deduction.Target.Complete() {
			q.incomplete = append(q.incomplete, d.ds.Entities[i].ID)
		}
	}
	if len(q.incomplete) < 2 {
		return nil, fmt.Errorf("seed leaves %d incomplete targets; the query mix needs at least 2", len(q.incomplete))
	}
	return q, nil
}

// queryOps draws n requests: 90% top-k queries with k in {3, 5} and 10%
// appends of a held-back tuple. Keys are Zipf(1.1) over the incomplete
// entities in a seeded rank order that is reshuffled ten times per run:
// with one fixed order the run's cost hinged on which one or two entities
// the seed ranked first (CPU per request moved 2.5–4.1 ms between seeds).
// An append goes to the drawn key if its held-back tuple is still unused,
// else to the next unused one.
func queryOps(q *queryMix, n int, seed int64) []op {
	rng := rand.New(rand.NewSource(seed))
	ranked := append([]string(nil), q.incomplete...)
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(ranked)-1))
	spare := make([]string, 0, len(q.heldBack))
	for k := range q.heldBack {
		spare = append(spare, k)
	}
	sort.Strings(spare)
	rng.Shuffle(len(spare), func(i, j int) { spare[i], spare[j] = spare[j], spare[i] })
	used := map[string]bool{}
	ops := make([]op, 0, n)
	for len(ops) < n {
		if len(ops)%max(1, n/10) == 0 {
			rng.Shuffle(len(ranked), func(i, j int) { ranked[i], ranked[j] = ranked[j], ranked[i] })
		}
		key := ranked[zipf.Uint64()]
		if rng.Float64() < 0.1 {
			if _, ok := q.heldBack[key]; !ok || used[key] {
				key = ""
				for len(spare) > 0 && key == "" {
					if !used[spare[0]] {
						key = spare[0]
					}
					spare = spare[1:]
				}
			}
			if key != "" {
				used[key] = true
				ops = append(ops, op{route: routeAppend, key: key, tuple: q.heldBack[key]})
				continue
			}
			key = ranked[zipf.Uint64()]
		}
		k := 3
		if rng.Intn(2) == 1 {
			k = 5
		}
		ops = append(ops, op{route: routeQuery, key: key, k: k})
	}
	linkKeys(ops)
	return ops
}
