package batch

import (
	"context"
	"sync"
)

// Pool runs jobs 0..n-1 on at most workers goroutines and hands each
// outcome to emit, which it serializes — an emit may write to a shared
// stream or slice without locking. It is the one bounded pool behind
// Engine.Run/Stream and pkg/steady/sim's sweeps:
//
//   - a non-nil error from emit stops the run: in-flight jobs finish
//     unreported, the remaining ones are never started, and Pool
//     returns that error;
//   - when ctx ends, every job not yet handed to a worker is reported
//     as skipped(i, ctx.Err()) rather than dropped silently; jobs
//     already running see the same ctx and end on their own terms.
//
// Pool returns once every worker has exited.
func Pool[O any](ctx context.Context, workers, n int, run func(ctx context.Context, i int) O, skipped func(i int, err error) O, emit func(i int, o O) error) error {
	if n == 0 {
		return nil
	}
	if workers > n {
		workers = n
	}

	var (
		emitMu  sync.Mutex
		emitErr error
		work    = make(chan int)
		wg      sync.WaitGroup
	)
	deliver := func(i int, o O) {
		emitMu.Lock()
		defer emitMu.Unlock()
		if emitErr == nil {
			emitErr = emit(i, o)
		}
	}
	stopped := func() bool {
		emitMu.Lock()
		defer emitMu.Unlock()
		return emitErr != nil
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range work {
				deliver(i, run(ctx, i))
			}
		}()
	}

feed:
	for i := 0; i < n && !stopped(); i++ {
		select {
		case work <- i:
		case <-ctx.Done():
			for j := i; j < n; j++ {
				deliver(j, skipped(j, ctx.Err()))
			}
			break feed
		}
	}
	close(work)
	wg.Wait()
	return emitErr
}
