// Package par holds the module's one goroutine fan-out: Ordered, a worker
// pool whose results are committed in input order. The parallel N-Triples
// parse and write and the overlap-matching scan differ only in the work
// and done functions they hand it, so result order, back-pressure and
// "the first error in input order wins" are implemented once, here.
package par

import "sync"

// Ordered runs work over the items next yields on up to workers goroutines
// and hands every result to done strictly in item order.
//
//   - next is never called concurrently, and never again once it has
//     returned false. Workers call it in turn, so a slow read delays other
//     claims but never a commit.
//   - work(worker, item, r) writes item's result into r. worker, in
//     [0, workers), names the calling goroutine, so work can keep
//     per-worker scratch in a slice without locking. Result slots are
//     recycled: r is the zero R or holds a result done has already seen.
//   - done runs one call at a time, in item order, on the worker that finds
//     the next result ready, so a commit never waits for an idle goroutine.
//     The first error it returns stops the pool: no further item is
//     claimed, results still in flight are dropped, and Ordered returns
//     that error once every worker has exited.
//
// At most 2·workers+4 items are claimed but not yet committed, which
// bounds the memory held in result slots however unevenly the cost of
// work is spread over the items. With workers <= 1 everything runs inline
// on the calling goroutine, through one result slot.
func Ordered[T, R any](workers int, next func() (T, bool), work func(worker int, item T, r *R), done func(r *R) error) error {
	if workers <= 1 {
		var r R
		for item, ok := next(); ok; item, ok = next() {
			work(0, item, &r)
			if err := done(&r); err != nil {
				return err
			}
		}
		return nil
	}
	window := 2*workers + 4
	tokens := make(chan struct{}, window) // semaphore: one per claimed, uncommitted item
	quit := make(chan struct{})           // closed once done has failed
	// Committed result slots wait here for reuse; no more than window
	// slots are ever made, so returning one never blocks.
	free := make(chan *R, window)
	// Worked results by item number mod window: the claimed items all lie
	// within window of the commit frontier, so their entries never clash.
	ready := make([]*R, window)
	var (
		claim   sync.Mutex // held across next, which it serialises; guards claimed and ended
		claimed int
		ended   bool

		mu         sync.Mutex // guards ready, committed, committing and err
		committed  int
		committing bool // a worker is running done
		err        error

		wg sync.WaitGroup
	)
	wg.Add(workers)
	for w := range workers {
		go func() {
			defer wg.Done()
			for {
				select {
				case tokens <- struct{}{}:
				case <-quit:
					return
				}
				claim.Lock()
				var item T
				ok := !ended
				if ok {
					item, ok = next()
					ended = !ok
				}
				seq := claimed
				claimed++
				claim.Unlock()
				if !ok {
					<-tokens
					return
				}
				var r *R
				select {
				case r = <-free:
				default:
					r = new(R)
				}
				work(w, item, r)
				// Park the result. A worker that finds the frontier ready
				// commits every ready result in order; results parked while
				// done runs are seen by its next loop test. The channel
				// operations under mu never block: the committed item holds
				// a token, and its slot is one of at most window.
				mu.Lock()
				ready[seq%window] = r
				for !committing && err == nil && ready[committed%window] != nil {
					r := ready[committed%window]
					ready[committed%window] = nil
					committing = true
					mu.Unlock()
					e := done(r)
					if e != nil {
						claim.Lock()
						ended = true
						claim.Unlock()
						close(quit)
					}
					mu.Lock()
					committing, err = false, e
					committed++
					free <- r
					<-tokens
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return err
}
