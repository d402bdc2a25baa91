package experiments

import (
	"errors"
	"sync"
)

// forEachIndex runs fn for every index 0..n-1 concurrently, one
// goroutine each, and joins the errors in index order. Rows here only
// assemble results and evaluate traces; the expensive part — the
// closed-loop simulations — is scheduled and bounded by the caller's
// internal/engine pool, so no package-local semaphore is needed.
func forEachIndex(n int, fn func(int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}
