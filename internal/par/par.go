// Package par holds the repository's one index-parallel loop. It is a
// leaf package so every layer can share it: the update stream's
// per-entity Apply and Snapshot fan-out and the bench experiment
// drivers.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Each runs f(i) for every i in [0, n) across w workers (w <= 0 means
// GOMAXPROCS). Workers pull indices off a shared counter, so one slow
// iteration does not stall the rest. Iterations must be independent;
// deterministic output is obtained by writing into index-addressed
// slices captured by f. The lowest-index error is returned, matching
// what a sequential loop would have reported.
func Each(w, n int, f func(i int) error) error {
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
