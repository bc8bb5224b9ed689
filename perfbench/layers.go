package main

import (
	"fmt"
	"time"
)

// perLayerUnits names every per-layer metric with its unit.
var perLayerUnits = map[string]string{
	"csvio.rows":                 "count",
	"csvio.busy_s":               "s",
	"er.entities":                "count",
	"er.busy_s":                  "s",
	"chase.ground.calls":         "count",
	"chase.ground.busy_s":        "s",
	"chase.ground.p99_ms":        "ms",
	"chase.ground.steps":         "count",
	"chase.extend.calls":         "count",
	"chase.extend.busy_s":        "s",
	"chase.extend.p99_ms":        "ms",
	"chase.run.calls":            "count",
	"chase.run.busy_s":           "s",
	"topk.search.calls":          "count",
	"topk.search.busy_s":         "s",
	"topk.search.p50_ms":         "ms",
	"topk.search.p99_ms":         "ms",
	"topk.checks_per_search":     "count",
	"topk.pops_per_search":       "count",
	"topk.generated_per_search":  "count",
	"topk.useful_ratio":          "ratio",
	"topk.budget_aborts":         "count",
	"vcache.hit_ratio":           "ratio",
	"vcache.entries":             "count",
	"pipeline.apply.busy_s":      "s",
	"pipeline.apply.p99_ms":      "ms",
	"pipeline.query.busy_s":      "s",
	"pipeline.query.p99_ms":      "ms",
	"pipeline.settled.hit_ratio": "ratio",
	"pipeline.seed.busy_s":       "s",
	"wal.log.calls":              "count",
	"wal.log.busy_s":             "s",
	"wal.log.p99_ms":             "ms",
	"wal.bytes_per_tuple":        "B",
	"wal.recover.busy_s":         "s",
	"wal.recover.batches":        "count",
	"server.busy_s":              "s",
	"server.self_s":              "s",
	"server.response_bytes":      "B",
	"load.offered_rps":           "1/s",
	"load.achieved_rps":          "1/s",
	"load.late_ms_max":           "ms",
	"load.outstanding_max":       "count",
	"trace.attributed_ratio":     "ratio",
}

// traceWorkload runs the workload's traced replay and turns its spans
// into the per-layer metrics.
func traceWorkload(o *outcome) (map[string]float64, error) {
	t := newTracer()
	l, err := o.replay(t)
	if err != nil {
		return nil, err
	}
	if l.memoMirrored != l.cache.SettledHits {
		return nil, fmt.Errorf("engine replica mirrored %d settled-memo hits, the Updater counted %d", l.memoMirrored, l.cache.SettledHits)
	}
	m := map[string]float64{}
	byName := map[string][]*span{}
	for i := range t.spans {
		s := &t.spans[i]
		byName[s.name] = append(byName[s.name], s)
	}
	busy := func(name string) float64 {
		var d time.Duration
		for _, s := range byName[name] {
			d += s.dur()
		}
		return d.Seconds()
	}
	sum := func(name string, field int) int64 {
		var n int64
		for _, s := range byName[name] {
			n += s.n[field]
		}
		return n
	}
	pct := func(name string, p float64) float64 {
		var xs []float64
		for _, s := range byName[name] {
			xs = append(xs, ms(s.dur()))
		}
		v, err := percentile(xs, p)
		if err != nil {
			// Too few calls for this percentile: report 0, say why.
			if len(xs) > 0 {
				o.notes = append(o.notes, fmt.Sprintf("%s p%g refused: %v", name, p, err))
			}
			return 0
		}
		return v
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	m["csvio.rows"] = float64(sum("csvio", 0))
	m["csvio.busy_s"] = busy("csvio")
	m["er.entities"] = float64(countNonZero(byName["er"]))
	m["er.busy_s"] = busy("er") - nestedBusy(t, "csvio", "er", false).Seconds()
	for _, c := range []string{"ground", "extend", "run"} {
		name := "chase." + c
		m[name+".calls"] = float64(len(byName[name]))
		m[name+".busy_s"] = busy(name)
	}
	m["chase.ground.p99_ms"] = pct("chase.ground", 99)
	m["chase.ground.steps"] = float64(sum("chase.ground", 0))
	m["chase.extend.p99_ms"] = pct("chase.extend", 99)

	searches := float64(len(byName["topk.search"]))
	checks := float64(sum("topk.search", 0))
	m["topk.search.calls"] = searches
	m["topk.search.busy_s"] = busy("topk.search")
	m["topk.search.p50_ms"] = pct("topk.search", 50)
	m["topk.search.p99_ms"] = pct("topk.search", 99)
	m["topk.checks_per_search"] = ratio(checks, searches)
	m["topk.pops_per_search"] = ratio(float64(sum("topk.search", 1)), searches)
	m["topk.generated_per_search"] = ratio(float64(sum("topk.search", 2)), searches)
	m["topk.useful_ratio"] = ratio(float64(sum("topk.search", 3)), checks)
	aborts := 0
	for _, s := range byName["topk.search"] {
		if s.n[0] >= maxChecks {
			aborts++
		}
	}
	m["topk.budget_aborts"] = float64(aborts)

	cs := l.cache
	m["vcache.hit_ratio"] = ratio(float64(cs.VerdictHits), float64(cs.VerdictHits+cs.VerdictMisses))
	m["vcache.entries"] = float64(cs.VerdictEntries)
	m["pipeline.apply.busy_s"] = busy("pipeline.apply")
	m["pipeline.apply.p99_ms"] = pct("pipeline.apply", 99)
	m["pipeline.query.busy_s"] = busy("pipeline.query")
	m["pipeline.query.p99_ms"] = pct("pipeline.query", 99)
	m["pipeline.settled.hit_ratio"] = ratio(float64(cs.SettledHits), float64(cs.SettledHits+cs.SettledMisses))
	m["pipeline.seed.busy_s"] = busy("pipeline.seed")

	m["wal.log.calls"] = float64(len(byName["wal.log"]))
	m["wal.log.busy_s"] = busy("wal.log")
	m["wal.log.p99_ms"] = pct("wal.log", 99)
	m["wal.bytes_per_tuple"] = ratio(float64(l.walBytes), float64(l.walTuples))
	m["wal.recover.busy_s"] = busy("wal.recover")
	m["wal.recover.batches"] = float64(sum("wal.recover", 0))

	// Per-op self times: the server minus the pipeline replica and the
	// WAL calls nested in it; the pipeline minus the engine replica.
	type opTimes struct{ server, wal, pipe, engine time.Duration }
	per := map[int32]*opTimes{}
	at := func(op int32) *opTimes {
		if per[op] == nil {
			per[op] = &opTimes{}
		}
		return per[op]
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.op < 0 {
			continue
		}
		switch s.name {
		case "server":
			at(s.op).server += s.dur()
		case "wal.log":
			at(s.op).wal += s.dur()
		case "pipeline.apply", "pipeline.query":
			at(s.op).pipe += s.dur()
		case "chase.ground", "chase.extend", "chase.run", "topk.search":
			at(s.op).engine += s.dur()
		}
	}
	var serverSelf, pipeSelf time.Duration
	for _, ot := range per {
		serverSelf += max(0, ot.server-ot.pipe-ot.wal)
		if ot.pipe > 0 {
			pipeSelf += max(0, ot.pipe-ot.engine)
		}
	}
	m["server.busy_s"] = busy("server")
	m["server.self_s"] = serverSelf.Seconds()
	m["server.response_bytes"] = float64(sum("server", 0))

	if run := o.load; run != nil {
		m["load.offered_rps"] = run.rate
		m["load.achieved_rps"] = float64(len(run.results)) / run.elapsed.Seconds()
		m["load.late_ms_max"] = ms(run.lateMax)
		m["load.outstanding_max"] = float64(run.outstandingMax)
	} else {
		for _, k := range []string{"load.offered_rps", "load.achieved_rps", "load.late_ms_max", "load.outstanding_max"} {
			m[k] = 0
		}
	}

	// Coverage: layer self time of the measured ops over their wall time
	// in the end-to-end run.
	// er's self time excludes the csvio calls nested in it.
	attributed := serverSelf + pipeSelf - nestedBusy(t, "csvio", "er", true)
	for i := range t.spans {
		s := &t.spans[i]
		switch s.name {
		case "csvio", "er", "chase.ground", "chase.extend", "chase.run", "topk.search", "wal.log":
			if s.op >= 0 {
				attributed += s.dur()
			}
		}
	}
	m["trace.attributed_ratio"] = ratio(attributed.Seconds(), o.opWall)
	return m, nil
}

// nestedBusy is the time of name's spans whose parent is a parent span,
// over the measured ops only or over the whole replay.
func nestedBusy(t *tracer, name, parent string, opsOnly bool) time.Duration {
	var d time.Duration
	for i := range t.spans {
		s := &t.spans[i]
		if s.name == name && s.parent >= 0 && t.spans[s.parent].name == parent && (s.op >= 0 || !opsOnly) {
			d += s.dur()
		}
	}
	return d
}

// countNonZero counts the spans whose first count is non-zero (the
// calls that returned something).
func countNonZero(spans []*span) int {
	n := 0
	for _, s := range spans {
		if s.n[0] != 0 {
			n++
		}
	}
	return n
}
