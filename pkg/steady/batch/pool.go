package batch

import (
	"context"
	"fmt"
	"sync"
)

// Pool runs jobs 0..n-1 on at most workers goroutines and hands each
// outcome to emit, which it serializes — an emit may write to a shared
// stream or slice without locking. It is the one bounded pool behind
// every sweep (pkg/steady/server's /v1/sweep and /v1/simsweep, which
// cmd/experiments -batch runs in process):
//
//   - a non-nil error from emit stops the run: in-flight jobs finish
//     unreported, the remaining ones are never started, and Pool
//     returns that error;
//   - when ctx ends, every job not yet handed to a worker is reported
//     as skipped(i, ctx.Err()) rather than dropped silently; jobs
//     already running see the same ctx and end on their own terms;
//   - a job that panics is reported as skipped(i, err) too, and the
//     worker goes on to the next one: a worker is a goroutine nothing
//     above it guards, so the panic of one job (a custom steady.Solver,
//     an LP on one odd platform) would otherwise end the process and
//     every other job with it.
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
	guarded := func(i int) (o O) {
		defer func() {
			if r := recover(); r != nil {
				o = skipped(i, fmt.Errorf("batch: job %d panicked: %v", i, r))
			}
		}()
		return run(ctx, i)
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
				deliver(i, guarded(i))
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
