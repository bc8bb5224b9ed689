package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// outcome is what one workload run measured and checked.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string       // failed oracle checks, one line each
	samples   map[string]int // sample count behind each percentile
	notes     []string       // extra figures printed beside the metrics
	p99       float64        // primary-route p99 in ms (printed; the ladder's limit)
	rate      float64        // offered requests/s (serve workloads)
	load      *loadRun       // the open-loop run (serve workloads)
	opWall    float64        // summed wall seconds of the measured ops, for trace coverage
	replay    func(*tracer) (*layers, error)
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, samples: map[string]int{}}
}

// problem records a failed check; the run then reports correct=false.
func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// printRecord prints the run record: the machine, toolchain, source and
// load figures the numbers were measured under.
func printRecord(e *env, o *outcome) {
	procs := "inherit"
	if e.procs > 0 {
		procs = fmt.Sprint(e.procs)
	}
	rec := map[string]any{
		"workload":           e.workload,
		"trace":              e.trace,
		"seed":               e.seed,
		"seconds":            e.seconds,
		"nproc":              runtime.NumCPU(),
		"program_gomaxprocs": procs,
		"loadgen_gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":                cpuModel(),
		"go":                 runtime.Version(),
		"commit":             commit(),
		"offered_rps":        o.rate,
		"samples":            o.samples,
		"attempted":          o.attempted,
		"failed":             o.failed,
		"generator_late_ms":  0.0,
		"outstanding_max":    0,
	}
	if o.load != nil {
		rec["generator_late_ms"] = ms(o.load.lateMax)
		rec["outstanding_max"] = o.load.outstandingMax
	}
	line, _ := json.Marshal(rec)
	fmt.Println("run-record:", string(line))
	for _, n := range o.notes {
		fmt.Println(n)
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the source the programs were built from: the VCS revision
// when the build recorded one, else a digest of the Go sources and
// go.mod files under the working directory.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	var paths []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(data))
		h.Write(data)
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
