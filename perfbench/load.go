package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// result is what the load generator observed for one op. Times are
// offsets from the start of the run; latency counts from due, so a stall
// also delays every request queued behind it.
type result struct {
	due, sent, done time.Duration
	status          int
	body            []byte
	err             error
}

func (r *result) latency() time.Duration { return r.done - r.due }

// loadRun is one open-loop run: the op results plus the generator's own
// health figures.
type loadRun struct {
	results        []result
	rate           float64
	start          time.Time     // the zero of the result offsets
	elapsed        time.Duration // first due time to last completion
	lateMax        time.Duration // worst dispatch delay past a due time
	outstandingMax int64         // most requests dispatched but unanswered
}

// openLoop sends ops to base at a fixed rate over `clients` keep-alive
// connections. Op i is due at i/rate after the start whatever happened to
// earlier ops; it waits only for a free connection and, for an append,
// for the previous append on its key (so each entity sees its evidence
// in order).
func openLoop(base string, ops []op, rate float64, clients int) *loadRun {
	// Keep the generator's own garbage collector off the program's cores
	// while it measures: collect now, then not again until the run ends
	// (the run allocates a few KiB per request).
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run := &loadRun{results: make([]result, len(ops)), rate: rate}
	done := make([]chan struct{}, len(ops))
	for i := range done {
		done[i] = make(chan struct{})
	}
	queue := make(chan int, len(ops)) // the dispatcher never blocks on a slow server
	var outstanding atomic.Int64
	var outMax atomic.Int64
	start := time.Now()
	run.start = start
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr, Timeout: 60 * time.Second}
			for i := range queue {
				if p := ops[i].prev; p >= 0 {
					<-done[p]
				}
				r := &run.results[i]
				r.sent = time.Since(start)
				r.status, r.body, r.err = send(client, base, &ops[i])
				r.done = time.Since(start)
				outstanding.Add(-1)
				close(done[i])
			}
		}()
	}
	for i := range ops {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		run.results[i].due = due
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		if late := time.Since(start) - due; late > run.lateMax {
			run.lateMax = late
		}
		if n := outstanding.Add(1); n > outMax.Load() {
			outMax.Store(n)
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	run.elapsed = time.Since(start)
	run.outstandingMax = outMax.Load()
	return run
}

func send(client *http.Client, base string, o *op) (int, []byte, error) {
	method, path, body := o.request()
	req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// percentile is the nearest-rank p-th percentile of xs (which it sorts).
// It refuses, with an error, a percentile that has fewer than 10 samples
// beyond it: such a tail is one or two requests, not a distribution.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < 10 {
		return 0, fmt.Errorf("p%g needs at least 10 samples beyond it, %d samples leave %d", p, n, n-rank)
	}
	sort.Float64s(xs)
	return xs[rank-1], nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
