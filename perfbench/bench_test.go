package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// opBytes renders an op sequence as the requests it sends.
func opBytes(ops []op) []byte {
	var b bytes.Buffer
	for i := range ops {
		m, p, body := ops[i].request()
		b.WriteString(m + " " + p + " ")
		b.Write(body)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestInputsDeterministic(t *testing.T) {
	gen := func(seed int64) [][]byte {
		d, err := newDataset(seed, 300)
		if err != nil {
			t.Fatal(err)
		}
		q, err := newQueryMix(d)
		if err != nil {
			t.Fatal(err)
		}
		return [][]byte{d.relation, d.master, d.header, d.rules, q.seedCSV,
			opBytes(evidenceOps(d, seed)), opBytes(queryOps(q, 500, seed))}
	}
	names := []string{"relation", "master", "header", "rules", "seed", "evidence ops", "query ops"}
	a, b, c := gen(7), gen(7), gen(8)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Errorf("%s differs between two runs on seed 7", names[i])
		}
		if len(a[i]) == 0 {
			t.Errorf("%s is empty", names[i])
		}
	}
	if bytes.Equal(a[0], c[0]) || bytes.Equal(a[5], c[5]) || bytes.Equal(a[6], c[6]) {
		t.Error("seeds 7 and 8 gave the same relation or op sequence")
	}
}

func TestEvidenceOpsKeepEntityOrder(t *testing.T) {
	d, err := newDataset(3, 200)
	if err != nil {
		t.Fatal(err)
	}
	ops := evidenceOps(d, 3)
	if len(ops) != d.totalRows {
		t.Fatalf("%d ops for %d tuples", len(ops), d.totalRows)
	}
	next := map[string]int{}
	for _, e := range d.ds.Entities {
		next[e.ID] = 0
	}
	byID := map[string]int{}
	for i, e := range d.ds.Entities {
		byID[e.ID] = i
	}
	for i, o := range ops {
		ent := d.ds.Entities[byID[o.key]]
		if ent.Instance.Tuple(next[o.key]) != o.tuple {
			t.Fatalf("op %d sends tuple out of %s's order", i, o.key)
		}
		next[o.key]++
	}
}

// TestOpenLoopCountsFromDueTime stalls a fake server for 200ms on one
// request; the requests due during the stall must show the wait in their
// latency, because the load generator times each request from when it
// was due, not from when it could be sent.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	var mu sync.Mutex // every request passes through it, so the stall blocks all
	var stallEnd time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if strings.Contains(r.URL.Path, "/stall/") {
			time.Sleep(stall)
			stallEnd = time.Now()
		}
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()

	const rate = 200.0
	ops := make([]op, 100)
	for i := range ops {
		ops[i] = op{route: routeQuery, key: "k", k: 3}
	}
	ops[20].key = "stall"
	linkKeys(ops)
	run := openLoop(srv.URL, ops, rate, 2)
	mu.Lock()
	end := stallEnd.Sub(run.start)
	mu.Unlock()
	behind := 0
	for i := 21; i < len(ops); i++ {
		r := run.results[i]
		if r.err != nil || r.status != 200 {
			t.Fatalf("op %d: status %d err %v", i, r.status, r.err)
		}
		if r.due >= end {
			continue
		}
		behind++
		if want := end - r.due; r.latency() < want {
			t.Errorf("op %d due %v finished %v: latency %v, want at least %v (the stall it queued behind)",
				i, r.due, r.done, r.latency(), want)
		}
	}
	if behind < 30 {
		t.Fatalf("only %d ops were due during the stall; the test lost its point", behind)
	}
	if run.outstandingMax < 10 {
		t.Errorf("outstanding max %d, want the backlog the stall built", run.outstandingMax)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // reversed: percentile must sort
		}
		return xs
	}
	if v, err := percentile(seq(100), 50); err != nil || v != 50 {
		t.Errorf("p50 of 1..100 = %v, %v; want 50", v, err)
	}
	if v, err := percentile(seq(1000), 99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(seq(999), 99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(seq(100), 99); err == nil {
		t.Error("p99 of 100 samples must be refused")
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("a percentile of no samples must be refused")
	}
}

func TestMetricsMatchBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, emitted map[string]string, listed []struct{ Name, Unit string }) {
		seen := map[string]bool{}
		for _, m := range listed {
			seen[m.Name] = true
			if unit, ok := emitted[m.Name]; !ok {
				t.Errorf("%s metric %s is in BENCHMARK.json but never emitted", kind, m.Name)
			} else if unit != m.Unit {
				t.Errorf("%s metric %s: emitted unit %q, BENCHMARK.json says %q", kind, m.Name, unit, m.Unit)
			}
		}
		for name := range emitted {
			if !seen[name] {
				t.Errorf("%s metric %s is emitted but missing from BENCHMARK.json", kind, name)
			}
		}
	}
	check("end-to-end", endToEndUnits, spec.EndToEnd)
	check("per-layer", perLayerUnits, spec.PerLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
}

func TestEntityElapsed(t *testing.T) {
	d, err := entityElapsed("entity 12           [4 tuples]  complete          (name=x)  (1.234ms)")
	if err != nil || d != 1234*time.Microsecond {
		t.Errorf("got %v, %v", d, err)
	}
	if _, err := entityElapsed("entity 12 [4 tuples] complete"); err == nil {
		t.Error("a line without a time must not parse")
	}
}
