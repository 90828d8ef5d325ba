package batch_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/pkg/steady/batch"
)

// The pool's contract, tested once here for both of its users
// (Engine.Run/Stream and sim.Engine.Sweep/StreamSweep).

func TestPoolBoundsWorkersAndKeepsIndices(t *testing.T) {
	const n, workers = 40, 3
	var running, peak atomic.Int64
	out := make([]int, n)
	err := batch.Pool(context.Background(), workers, n,
		func(_ context.Context, i int) int {
			now := running.Add(1)
			for {
				old := peak.Load()
				if now <= old || peak.CompareAndSwap(old, now) {
					break
				}
			}
			running.Add(-1)
			return i * i
		},
		func(i int, err error) int { t.Errorf("job %d skipped: %v", i, err); return -1 },
		func(i int, o int) error { out[i] = o; return nil }) // unsynchronized on purpose: emits are serialized
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range out {
		if o != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, o, i*i)
		}
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("%d jobs ran at once, bound %d", p, workers)
	}
}

func TestPoolEmitErrorStopsRun(t *testing.T) {
	boom := errors.New("sink full")
	var ran atomic.Int64
	seen := 0
	err := batch.Pool(context.Background(), 2, 100,
		func(context.Context, int) int { return int(ran.Add(1)) },
		func(int, error) int { return 0 },
		func(int, int) error {
			seen++
			if seen == 3 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("Pool error = %v, want %v", err, boom)
	}
	if seen != 3 {
		t.Fatalf("emit called %d times, want it to stop at the failing third", seen)
	}
	// Only the jobs in flight when the sink failed may still finish.
	if r := ran.Load(); r > 3+2 {
		t.Fatalf("%d jobs ran after a sink error on the third, want the feed to stop", r)
	}
}

func TestPoolCancellationMarksUnstartedJobs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const n = 10
	got := make([]error, n)
	err := batch.Pool(ctx, 1, n,
		func(_ context.Context, i int) error {
			if i == 2 {
				cancel()
			}
			return nil
		},
		func(_ int, err error) error { return err },
		func(i int, o error) error { got[i] = o; return nil })
	if err != nil {
		t.Fatal(err)
	}
	skipped := 0
	for i, e := range got {
		if e == nil {
			continue
		}
		if !errors.Is(e, context.Canceled) {
			t.Fatalf("job %d: %v, want context.Canceled", i, e)
		}
		if i <= 2 {
			t.Fatalf("job %d ran before the cancel yet was reported skipped", i)
		}
		skipped++
	}
	// The single worker may have been handed job 3 before the feeder
	// saw the cancel; everything after it must be marked, not dropped.
	if skipped < n-4 {
		t.Fatalf("%d jobs marked canceled, want at least %d", skipped, n-4)
	}
}

func TestPoolNoJobs(t *testing.T) {
	if err := batch.Pool(context.Background(), 4, 0,
		func(context.Context, int) int { panic("ran") },
		func(int, error) int { panic("skipped") },
		func(int, int) error { panic("emitted") }); err != nil {
		t.Fatal(err)
	}
}
