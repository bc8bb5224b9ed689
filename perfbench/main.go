// Command perfbench is the repository's end-to-end benchmark. It generates
// seeded Med-shaped inputs, runs the real programs (relacc batch, relaccd
// over loopback TCP) as separate processes, measures them from outside,
// checks their outputs against in-process oracles and prints one JSON
// result line. With -trace 1 it also replays the workload in-process with
// a span around every call into a layer and prints per-layer metrics
// instead. See README.md in this directory.
//
//	perfbench -bin DIR -work DIR -workload ingest|serve-evidence|serve-query -seed N -seconds S -trace 0|1
//	perfbench -bin DIR -work DIR -ladder
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// endToEndUnits names every end-to-end metric with its unit; each also
// appears in BENCHMARK.json (a self-test holds the two together).
var endToEndUnits = map[string]string{
	"setup_s":       "s",
	"goodput_rps":   "1/s",
	"cpu_ms_per_op": "ms",
	"peak_rss_mb":   "MB",
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env) (*outcome, error){
	"ingest":         runIngest,
	"serve-evidence": runServeEvidence,
	"serve-query":    runServeQuery,
}

// env is one benchmark invocation's settings.
type env struct {
	bin, work string // program binaries; scratch directory for this run
	workload  string
	seed      int64
	seconds   float64
	rate      float64 // offered requests/s (serve workloads); 0 = the workload's fixed rate
	procs     int     // GOMAXPROCS for the program under test; 0 = inherit (the ladder sets both)
	trace     bool
}

func (e *env) relacc() string  { return filepath.Join(e.bin, "relacc") }
func (e *env) relaccd() string { return filepath.Join(e.bin, "relaccd") }

func (e *env) daemonEnv() []string {
	if e.procs > 0 {
		return []string{fmt.Sprintf("GOMAXPROCS=%d", e.procs)}
	}
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var e env
	var trace int
	var ladder bool
	flag.StringVar(&e.bin, "bin", "", "directory holding the relacc and relaccd binaries")
	flag.StringVar(&e.work, "work", "", "scratch directory (a per-run subdirectory is made and removed)")
	flag.StringVar(&e.workload, "workload", "", "ingest, serve-evidence or serve-query")
	flag.Int64Var(&e.seed, "seed", 1, "input seed")
	flag.Float64Var(&e.seconds, "seconds", 15, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = per-layer metrics from a traced in-process replay")
	flag.BoolVar(&ladder, "ladder", false, "step the offered rate on both serve workloads at GOMAXPROCS 1 and 2")
	flag.Parse()
	e.trace = trace == 1
	// One load-generating process with at most nproc (and at most 2) threads.
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)

	if e.bin == "" || e.work == "" {
		fatalf("-bin and -work are required")
	}
	if err := run(&e, ladder); err != nil {
		fatalf("%v", err)
	}
}

// run does one invocation in a scratch directory it removes afterwards.
func run(e *env, ladder bool) error {
	dir, err := os.MkdirTemp(e.work, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e.work = dir
	if ladder {
		return runLadder(e)
	}
	runner, ok := workloads[e.workload]
	if !ok {
		return fmt.Errorf("unknown -workload %q (want ingest, serve-evidence or serve-query)", e.workload)
	}
	out, err := runner(e)
	if err != nil {
		return fmt.Errorf("%s: %w", e.workload, err)
	}
	rep := report{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	values, units := out.metrics, endToEndUnits
	if e.trace {
		if values, err = traceWorkload(out); err != nil {
			return fmt.Errorf("%s trace: %w", e.workload, err)
		}
		units = perLayerUnits
	}
	for name, unit := range units {
		v, ok := values[name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", e.workload, name)
		}
		rep.Metrics[name] = metric{Value: v, Unit: unit}
	}
	printRecord(e, out)
	for _, p := range out.problems {
		fmt.Println("FAILED:", p)
	}
	for _, name := range sortedKeys(rep.Metrics) {
		fmt.Printf("%-32s %14.6g %s\n", name, rep.Metrics[name].Value, rep.Metrics[name].Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return fmt.Errorf("%s: %d output checks failed", e.workload, len(out.problems))
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
