package ingest_test

// The memory guard: streaming ingest's peak heap must be flat in row
// count. A synthetic relation is generated lazily by an io.Reader — the
// CSV text itself never exists in memory either — and ingested through
// the full chain with a bounded window; the peak HeapAlloc for 2M rows
// must stay within 2× the 100k-row peak (ISSUE 9's acceptance bound).
// The materialized path, by construction, is linear in rows — that
// contrast is what BenchmarkStreamIngest records into BENCH_pr9.json.

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/er"
	"repro/internal/ingest"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/rule"
)

// synthCSV lazily generates a run-length CSV relation: header
// "id,ts,val", then rows/run consecutive rows per entity key, val
// drawn from 97 values or, when distinct, unique to its row. It never
// holds more than one row in memory.
type synthCSV struct {
	rows, run int
	distinct  bool
	i         int // rows emitted
	buf       []byte
	header    bool
}

func newSynthCSV(rows, run int, distinct bool) *synthCSV {
	return &synthCSV{rows: rows, run: run, distinct: distinct}
}

func (s *synthCSV) Read(p []byte) (int, error) {
	if !s.header {
		s.buf = append(s.buf, "id,ts,val\n"...)
		s.header = true
	}
	for len(s.buf) < len(p) && s.i < s.rows {
		val := s.i % 97
		if s.distinct {
			val = s.i
		}
		s.buf = fmt.Appendf(s.buf, "e%08d,%d,v%d\n", s.i/s.run, s.i%s.run, val)
		s.i++
	}
	if len(s.buf) == 0 {
		return 0, io.EOF
	}
	n := copy(p, s.buf)
	s.buf = s.buf[:copy(s.buf, s.buf[n:])]
	return n, nil
}

// peakHeapDuring samples HeapAlloc while f runs and returns the highest
// reading observed.
func peakHeapDuring(f func()) uint64 {
	runtime.GC()
	stop := make(chan struct{})
	var peak uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}()
	f()
	close(stop)
	wg.Wait()
	return peak
}

// ingestRows streams a synthetic relation of the given size through the
// full chain (trivial rule set — the guard measures ingest, not chase
// depth) and returns the run's peak heap.
func ingestRows(t *testing.T, rows int, distinct bool) uint64 {
	t.Helper()
	schema, err := model.NewSchema("synth", "id", "ts", "val")
	if err != nil {
		t.Fatal(err)
	}
	rules, err := rule.NewSet(schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.Config{Rules: rules, Workers: 2}
	const run = 200
	var entities int
	return peakHeapDuring(func() {
		sum, err := ingest.StreamCSV(newSynthCSV(rows, run, distinct), "synth",
			ingest.Options{By: "id", Window: er.Window{MaxEntities: 64}}, cfg,
			func(r pipeline.Result) error { entities++; return nil })
		if err != nil {
			t.Fatal(err)
		}
		if want := (rows + run - 1) / run; entities != want || sum.Entities != want {
			t.Fatalf("%d rows: %d entities (summary %d), want %d", rows, entities, sum.Entities, want)
		}
	})
}

// TestStreamIngestMemoryGuard is the acceptance bound: peak heap for a
// 2M-row ingest stays within 2× the 100k-row peak. (The only state
// that grows with the relation at all is the grouper's sealed-key
// guard — 8 hashed bytes per entity; the 2× budget absorbs it.)
func TestStreamIngestMemoryGuard(t *testing.T) {
	guardPeakHeap(t, false)
}

// TestStreamIngestDistinctValuesMemoryGuard is the same bound on a
// relation whose val is distinct per row: a value the schema's base
// dictionary lacks lives in its entity's overlay and goes with the
// entity, so ingest memory does not grow with the number of distinct
// values either.
func TestStreamIngestDistinctValuesMemoryGuard(t *testing.T) {
	guardPeakHeap(t, true)
}

// guardPeakHeap asserts the bound over the synthetic relation.
func guardPeakHeap(t *testing.T, distinct bool) {
	t.Helper()
	if raceEnabled {
		t.Skip("race instrumentation distorts heap accounting")
	}
	if testing.Short() {
		t.Skip("2M-row ingest in -short mode")
	}
	small := ingestRows(t, 100_000, distinct)
	big := ingestRows(t, 2_000_000, distinct)
	t.Logf("peak HeapAlloc: 100k rows = %.1f MiB, 2M rows = %.1f MiB (%.2fx)",
		float64(small)/(1<<20), float64(big)/(1<<20), float64(big)/float64(small))
	if big > 2*small {
		t.Fatalf("peak heap grew with row count: 100k rows peaked at %d bytes, 2M rows at %d (> 2x)",
			small, big)
	}
}

// TestSynthCSVWellFormed keeps the generator honest: a prefix parses
// into exactly the expected entity runs.
func TestSynthCSVWellFormed(t *testing.T) {
	var sb strings.Builder
	if _, err := io.Copy(&sb, newSynthCSV(100, 40, false)); err != nil {
		t.Fatal(err)
	}
	ok, err := ingest.RunLength(strings.NewReader(sb.String()), "synth", "id")
	if err != nil || !ok {
		t.Fatalf("synthetic CSV should be run-length: %v %v", ok, err)
	}
	if lines := strings.Count(sb.String(), "\n"); lines != 101 {
		t.Fatalf("%d lines, want 101", lines)
	}
}
