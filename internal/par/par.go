// Package par is the repository's one bounded worker pool. The serving
// sweeps (internal/edge), the experiment grid (internal/exp) and the
// fleet and load commands all fan index ranges out through Each, so the
// feed-under-context / close / wait protocol is written exactly once.
// It imports only the standard library.
package par

import (
	"context"
	"sync"
)

// Each runs fn(i) for i in [0,n) on at most workers goroutines (at
// least one) and waits for every call to return. Feeding stops as soon
// as ctx ends: indexes not yet handed to a worker never run, and fed
// reports how many did — exactly the prefix [0,fed). In-flight calls
// always finish before Each returns, so the caller may read whatever fn
// wrote without further synchronization. fn owns its own error
// collection and panic recovery; a panic escaping fn kills the process.
func Each(ctx context.Context, n, workers int, fn func(i int)) (fed int) {
	workers = min(workers, n)
	if workers < 1 {
		workers = 1
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	defer func() {
		close(next)
		wg.Wait()
	}()
	for ; fed < n; fed++ {
		// Checked first so an ended context stops the feed
		// deterministically, not on a coin flip between ready cases.
		if ctx.Err() != nil {
			return fed
		}
		select {
		case next <- fed:
		case <-ctx.Done():
			return fed
		}
	}
	return fed
}
