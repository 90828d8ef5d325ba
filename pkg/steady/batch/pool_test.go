package batch_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/pkg/steady"
	"repro/pkg/steady/batch"
	"repro/pkg/steady/platform"
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

// panickingSolver solves like the master-slave builtin except on the
// platform it was told to blow up on.
type panickingSolver struct {
	steady.Solver
	on *platform.Platform
}

func (s panickingSolver) Solve(ctx context.Context, p *platform.Platform, opts ...steady.SolveOption) (*steady.Result, error) {
	if p == s.on {
		panic("injected solver panic")
	}
	return s.Solver.Solve(ctx, p, opts...)
}

// TestPanickingJobIsOneErrorRecord: a pool worker is a goroutine
// nothing guards (net/http recovers only the handler's own), so a
// solver that panics on one job of a sweep used to end the process. It
// is now that job's error record — every other job is solved, the
// worker that caught it keeps working, and the cache key the panic
// abandoned is free (a retry solves, it does not wait).
func TestPanickingJobIsOneErrorRecord(t *testing.T) {
	ms, err := steady.New(steady.Spec{Problem: "masterslave"})
	if err != nil {
		t.Fatal(err)
	}
	plats := distinctPlatforms(6)
	const bad = 2
	jobs := make([]batch.Job, len(plats))
	for i, p := range plats {
		jobs[i] = batch.Job{ID: fmt.Sprintf("j%d", i), Platform: p, Solver: panickingSolver{ms, plats[bad]}}
	}
	eng := batch.New(1) // one worker: it must outlive the panic to finish the sweep
	for round := 0; round < 2; round++ {
		for i, o := range eng.Run(context.Background(), jobs) {
			switch {
			case o.JobID != jobs[i].ID:
				t.Fatalf("round %d: outcome %d is job %q, want %q", round, i, o.JobID, jobs[i].ID)
			case i == bad && (o.Err == nil || !strings.Contains(o.Err.Error(), "injected solver panic")):
				t.Fatalf("round %d: the panicking job reports %v, want the panic as its error", round, o.Err)
			case i != bad && (o.Err != nil || o.Result == nil):
				t.Fatalf("round %d job %d: %v", round, i, o.Err)
			}
		}
	}
	if st := eng.Cache().Stats(); st.InFlight != 0 || st.Entries != len(jobs)-1 {
		t.Fatalf("cache after two rounds = %+v, want none in flight and %d entries (a panic is never cached)", st, len(jobs)-1)
	}
}
