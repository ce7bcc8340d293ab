package core

import (
	"sync"
	"sync/atomic"
)

// ForEachIndexed runs fn(0..n-1) across a pool of at most workers
// goroutines. Each index runs exactly once and must write only to its own
// result slot, which is what makes the fan-out deterministic: results are
// assembled by index afterwards, never in completion order.
//
// Every index runs even when another fails (simulations have no shared
// state to corrupt); the returned error is the lowest-index failure, so
// the outcome is independent of goroutine scheduling. Sharded replay fans
// its segments out over it, and internal/bench its grid cells.
func ForEachIndexed(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			errs[i] = fn(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					errs[i] = fn(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
