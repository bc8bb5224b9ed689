package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// ladderStep is one offered rate tried by the ladder.
type ladderStep struct {
	Rate      float64 `json:"offered_rps"`
	P99MS     float64 `json:"p99_ms"`
	Samples   int     `json:"samples"`
	Failed    int     `json:"failed"`
	LateMaxMS float64 `json:"generator_late_ms_max"`
	DrainMS   float64 `json:"drain_ms"`
	Pass      bool    `json:"pass"`
}

// ladderLeg is the ladder of one serve workload at one GOMAXPROCS.
type ladderLeg struct {
	Name       string       `json:"name"`
	Workload   string       `json:"workload"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	LimitMS    float64      `json:"p99_limit_ms"`
	MaxRate    float64      `json:"max_rate_rps"`
	Steps      []ladderStep `json:"steps"`
}

// runLadder steps the offered rate on both serve workloads at program
// GOMAXPROCS 1 and 2 and prints, per leg, the highest rate whose primary
// route met its p99 limit without a growing backlog: no failed request,
// and the last request answered within one limit of its due time after
// the schedule ended.
func runLadder(e *env) error {
	legs := []ladderLeg{}
	for _, wl := range []string{"serve-evidence", "serve-query"} {
		limit := routeLimitMS[routeAppend]
		if wl == "serve-query" {
			limit = routeLimitMS[routeQuery]
		}
		for _, procs := range []int{1, 2} {
			leg := ladderLeg{Name: fmt.Sprintf("%s/gomaxprocs=%d", wl, procs), Workload: wl, GOMAXPROCS: procs, LimitMS: limit}
			for rate := 50.0; rate < 5000; rate = math.Round(rate * 1.25) {
				step, err := ladderRun(e, wl, procs, rate, limit)
				if err != nil {
					return fmt.Errorf("%s at %.0f/s: %w", leg.Name, rate, err)
				}
				fmt.Fprintf(os.Stderr, "ladder %s: %+v\n", leg.Name, step)
				leg.Steps = append(leg.Steps, step)
				if !step.Pass {
					break
				}
				leg.MaxRate = rate
			}
			legs = append(legs, leg)
		}
	}
	out := map[string]any{
		"date":   time.Now().UTC().Format(time.RFC3339),
		"nproc":  runtime.NumCPU(),
		"cpu":    cpuModel(),
		"go":     runtime.Version(),
		"commit": commit(),
		"seed":   e.seed,
		"legs":   legs,
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func ladderRun(e *env, workload string, procs int, rate, limit float64) (ladderStep, error) {
	step := ladderStep{Rate: rate}
	sub := *e
	sub.workload, sub.procs, sub.rate = workload, procs, rate
	// Enough requests for a p99 with 10 samples beyond it on the primary
	// route (90% of serve-query's requests are queries).
	sub.seconds = math.Max(10, 1300/rate)
	dir, err := os.MkdirTemp(e.work, "step-")
	if err != nil {
		return step, err
	}
	defer os.RemoveAll(dir)
	sub.work = dir
	o, err := workloads[workload](&sub)
	if err != nil {
		return step, err
	}
	run := o.load
	last := run.results[len(run.results)-1]
	step.P99MS = o.p99
	step.Samples = o.samples[map[string]string{"serve-evidence": "append", "serve-query": "query"}[workload]+".latency"]
	step.Failed = o.failed + len(o.problems)
	step.LateMaxMS = ms(run.lateMax)
	step.DrainMS = ms(run.elapsed - last.due)
	step.Pass = step.Failed == 0 && step.P99MS <= limit && step.DrainMS <= limit
	return step, nil
}
