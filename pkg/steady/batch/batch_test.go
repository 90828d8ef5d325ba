package batch_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/pkg/steady"
	"repro/pkg/steady/batch"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

// outcome is how one job of a test sweep ended.
type outcome struct {
	JobID, Key string
	Result     *steady.Result
	Err        error
	CacheHit   bool
}

// sweep solves jobs on a Pool of workers through cache and returns
// their outcomes in job order: a sweep as pkg/steady/server's /v1/sweep
// builds one, through its own pipeline.
func sweep(ctx context.Context, workers int, cache *batch.Cache, jobs []batch.Job) []outcome {
	out := make([]outcome, len(jobs))
	_ = batch.Pool(ctx, workers, len(jobs),
		func(ctx context.Context, i int) outcome {
			job := jobs[i]
			o := outcome{JobID: job.ID, Key: batch.KeyFor(job.Platform, job.Solver)}
			o.Result, o.Err, o.CacheHit = cache.DoSolve(ctx, o.Key, job.Solver.Name(), func(ctx context.Context, opts ...steady.SolveOption) (*steady.Result, error) {
				return job.Solver.Solve(ctx, job.Platform, opts...)
			})
			return o
		},
		func(i int, err error) outcome { return outcome{JobID: jobs[i].ID, Err: err} },
		func(i int, o outcome) error {
			out[i] = o
			return nil
		})
	return out
}

// blockingSolver counts how many Solve calls are running at once and
// releases them only when enough have gathered, proving a sweep
// actually runs jobs concurrently (not just queues them).
type blockingSolver struct {
	mu      sync.Mutex
	running int
	peak    int
	need    int
	release chan struct{}
}

func (s *blockingSolver) Name() string { return "blocking" }

func (s *blockingSolver) Solve(ctx context.Context, p *platform.Platform, _ ...steady.SolveOption) (*steady.Result, error) {
	s.mu.Lock()
	s.running++
	if s.running > s.peak {
		s.peak = s.running
	}
	if s.peak >= s.need {
		select {
		case <-s.release:
		default:
			close(s.release)
		}
	}
	s.mu.Unlock()

	select {
	case <-s.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}

	s.mu.Lock()
	s.running--
	s.mu.Unlock()
	return &steady.Result{Solver: "blocking", Throughput: rat.One()}, nil
}

// distinctPlatforms returns n platforms with pairwise distinct
// fingerprints, so every job is a cache miss.
func distinctPlatforms(n int) []*platform.Platform {
	out := make([]*platform.Platform, n)
	for i := range out {
		p := platform.New()
		m := p.AddNode("M", platform.WInt(1))
		w := p.AddNode("W", platform.WInt(int64(i)+1))
		p.AddEdge(m, w, rat.One())
		out[i] = p
	}
	return out
}

// TestConcurrentSolves: on a sweep of 4 workers, at least 4 platforms
// are genuinely in flight at the same time.
func TestConcurrentSolves(t *testing.T) {
	const n = 4
	solver := &blockingSolver{need: n, release: make(chan struct{})}
	var jobs []batch.Job
	for i, p := range distinctPlatforms(n) {
		jobs = append(jobs, batch.Job{ID: fmt.Sprintf("j%d", i), Platform: p, Solver: solver})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for _, o := range sweep(ctx, n, batch.NewCache(0, 0), jobs) {
		if o.Err != nil {
			t.Fatalf("job %s: %v", o.JobID, o.Err)
		}
	}
	if solver.peak < n {
		t.Fatalf("peak concurrency %d, want >= %d", solver.peak, n)
	}
}

// TestCacheHits submits duplicate platforms and verifies the LP is
// solved once per distinct (platform, solver) pair, with every
// duplicate served from the cache and equal to the original.
func TestCacheHits(t *testing.T) {
	solver, err := steady.New(steady.Spec{Problem: "masterslave"})
	if err != nil {
		t.Fatal(err)
	}
	base := distinctPlatforms(3)
	var jobs []batch.Job
	for round := 0; round < 3; round++ {
		for i, p := range base {
			jobs = append(jobs, batch.Job{ID: fmt.Sprintf("r%d-p%d", round, i), Platform: p, Solver: solver})
		}
	}

	cache := batch.NewCache(0, 0)
	outcomes := sweep(context.Background(), 4, cache, jobs)

	byKey := map[string]rat.Rat{}
	hits := 0
	for _, o := range outcomes {
		if o.Err != nil {
			t.Fatalf("job %s: %v", o.JobID, o.Err)
		}
		if o.CacheHit {
			hits++
		}
		if prev, ok := byKey[o.Key]; ok {
			if !prev.Equal(o.Result.Throughput) {
				t.Fatalf("key %s: throughput %v != cached %v", o.Key, o.Result.Throughput, prev)
			}
		} else {
			byKey[o.Key] = o.Result.Throughput
		}
	}
	st := cache.Stats()
	if st.Solves != int64(len(base)) {
		t.Fatalf("Solves = %d, want %d", st.Solves, len(base))
	}
	if want := int64(len(jobs) - len(base)); st.Hits != want || int64(hits) != want {
		t.Fatalf("Hits = %d (outcomes: %d), want %d", st.Hits, hits, want)
	}

	// A second sweep through the same cache is served entirely from it.
	again := sweep(context.Background(), 4, cache, jobs[:len(base)])
	for _, o := range again {
		if !o.CacheHit {
			t.Fatalf("job %s missed a warm cache", o.JobID)
		}
	}
}

func TestCancelledContext(t *testing.T) {
	solver, _ := steady.New(steady.Spec{Problem: "masterslave"})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var jobs []batch.Job
	for i, p := range distinctPlatforms(4) {
		jobs = append(jobs, batch.Job{ID: fmt.Sprintf("j%d", i), Platform: p, Solver: solver})
	}
	cache := batch.NewCache(0, 0)
	for _, o := range sweep(ctx, 2, cache, jobs) {
		if o.Err == nil {
			t.Fatalf("job %s succeeded under a canceled context", o.JobID)
		}
	}
	// The canceled run must not have poisoned the cache.
	for _, o := range sweep(context.Background(), 2, cache, jobs) {
		if o.Err != nil {
			t.Fatalf("job %s after cancellation: %v", o.JobID, o.Err)
		}
	}
}

// TestCacheBound verifies eviction: with capacity 1 and sequential
// jobs, only the most recent platform stays cached, so re-running the
// older ones solves them again instead of growing memory.
func TestCacheBound(t *testing.T) {
	solver, _ := steady.New(steady.Spec{Problem: "masterslave"})
	plats := distinctPlatforms(5)
	var jobs []batch.Job
	for i, p := range plats {
		jobs = append(jobs, batch.Job{ID: fmt.Sprintf("j%d", i), Platform: p, Solver: solver})
	}
	cache := batch.NewCache(1, 1)
	sweep(context.Background(), 1, cache, jobs)
	if st := cache.Stats(); st.Solves != 5 || st.Hits != 0 {
		t.Fatalf("first pass stats = %+v", st)
	}
	// Last platform survived; the earlier ones were evicted.
	last := sweep(context.Background(), 1, cache, jobs[4:])
	if !last[0].CacheHit {
		t.Fatalf("most recent platform was evicted")
	}
	again := sweep(context.Background(), 1, cache, jobs[:4])
	for _, o := range again {
		if o.CacheHit {
			t.Fatalf("job %s hit a cache that should have evicted it", o.JobID)
		}
		if o.Err != nil {
			t.Fatalf("job %s: %v", o.JobID, o.Err)
		}
	}
}

// TestNameEscaping guards the cache key against node names that
// contain the spec-name separator characters: the two specs below
// would collide if names were joined unescaped.
func TestNameEscaping(t *testing.T) {
	a, err := steady.New(steady.Spec{Problem: "scatter", Root: "A", Targets: []string{"B", "C"}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := steady.New(steady.Spec{Problem: "scatter", Root: "A", Targets: []string{"B+C"}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() == b.Name() {
		t.Fatalf("distinct specs share name %q", a.Name())
	}
}
