package pipeline

// Streaming entry points: the batch pipeline without the batch. An
// EntitySource yields completed entities one at a time (er.EntityStream
// over a csvio.TupleIterator is the canonical chain) and StreamFrom
// feeds them to the same worker pool Run uses, pulling from the source
// only as workers free up — backpressure reaches all the way back to
// the CSV reader, so a relation of any length grounds in memory
// proportional to workers + window, never to row count. Per-entity
// Results and the Summary are byte-identical to the materialized Run
// over the same entities (enforced by the ingest equivalence suite);
// the only field that cannot match is timing.

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/chase"
	"repro/internal/model"
)

// EntitySource is a pull-based stream of completed entity instances;
// Next returns io.EOF after the last one. er.EntityStream satisfies it.
type EntitySource interface {
	Next() (*model.EntityInstance, error)
}

// StreamFrom processes entities as the source yields them on a
// prebuilt schema-level groundwork (cfg.Master and cfg.Rules are
// ignored in favour of shared's own), delivering results to sink in
// source order; an empty source is an empty batch. Callers that build
// the groundwork themselves can resolve the source's rows against its
// base dictionary — the ingest composition does, so grounding reuses
// the rows' IDs. sink runs on the calling goroutine; returning an error stops
// the run early and is returned from StreamFrom. A source error or an
// entity of another schema likewise stops the run: in-flight entities
// finish but are not delivered.
func StreamFrom(shared *chase.Shared, src EntitySource, cfg Config, sink func(Result) error) (Summary, error) {
	return streamFrom(shared, src, cfg, sink, time.Now())
}

// job pairs an entity with its source-order index.
type job struct {
	i  int
	ie *model.EntityInstance
}

// streamFrom is the pipeline's one worker pool, behind Stream (over a
// slice) and StreamFrom (over any source). The invariant that bounds
// memory: issued − delivered ≤ window at all times, counting queued
// jobs, entities being worked, and results not yet handed to sink — so
// neither the jobs channel, the results channel, nor the reorder map
// can grow past the window, and the source is only pulled when there
// is room.
func streamFrom(shared *chase.Shared, src EntitySource, cfg Config, sink func(Result) error, start time.Time) (Summary, error) {
	var sum Summary
	schema := shared.Schema()
	w := cfg.workers()
	window := 2 * w

	jobs := make(chan job, window)
	results := make(chan Result, window)
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				results <- runEntity(j.i, j.ie, shared, &cfg)
			}
		}()
	}

	issued, delivered := 0, 0
	pending := make(map[int]Result, window)
	closed := false
	stop := func(err error) (Summary, error) {
		if !closed {
			close(jobs)
			closed = true
		}
		// Retire the workers before returning; in-flight entities finish
		// into the buffered results channel (capacity ≥ issued −
		// delivered, so no worker ever blocks) but are not delivered.
		wg.Wait()
		sum.Elapsed = time.Since(start)
		return sum, err
	}
	// deliver drains completed results — blocking for at least one when
	// must is set — and hands them to sink in source order.
	deliver := func(must bool) error {
		for issued > delivered {
			var r Result
			if must {
				r = <-results
				must = false
			} else {
				select {
				case r = <-results:
				default:
					return nil
				}
			}
			pending[r.Index] = r
			for {
				next, ok := pending[delivered]
				if !ok {
					break
				}
				delete(pending, delivered)
				delivered++
				sum.add(&next, schema.Arity())
				if err := sink(next); err != nil {
					return err
				}
			}
		}
		return nil
	}

	for {
		ie, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return stop(err)
		}
		if ie.Schema() != schema {
			return stop(fmt.Errorf("pipeline: entity %d uses schema %s, batch uses %s",
				issued, ie.Schema().Name(), schema.Name()))
		}
		for issued-delivered >= window {
			if err := deliver(true); err != nil {
				return stop(err)
			}
		}
		jobs <- job{issued, ie}
		issued++
		if err := deliver(false); err != nil {
			return stop(err)
		}
	}
	close(jobs)
	closed = true
	for issued > delivered {
		if err := deliver(true); err != nil {
			return stop(err)
		}
	}
	wg.Wait()
	sum.Elapsed = time.Since(start)
	return sum, nil
}
