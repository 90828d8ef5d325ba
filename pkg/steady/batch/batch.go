// Package batch solves many steady-state problems concurrently on
// top of the pkg/steady facade.
//
// An Engine runs a worker pool with bounded parallelism and
// deduplicates work through a sharded LP-solution cache (Cache)
// keyed by (steady.Fingerprint(platform), solver.Name()): submitting
// the same platform/solver pair twice — even concurrently — solves
// the LP once. This is the substrate for parameter sweeps
// (cmd/experiments -batch) and for the HTTP service front-end
// (pkg/steady/server, which shares one Cache between its solve
// handler and its sweep engine): steady-state LPs are pure functions
// of their platform, so their results are safely shareable.
//
//	eng := batch.New(8)
//	outcomes := eng.Run(ctx, jobs)
//	batch.WriteCSV(os.Stdout, outcomes)
//
// Results can also be streamed as they complete with Engine.Stream
// and the JSONSink/CSVSink adapters.
package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/pkg/steady"
	"repro/pkg/steady/platform"
)

// Job pairs a platform with the solver to run on it.
type Job struct {
	// ID is an optional caller-chosen label carried through to the
	// Outcome and the JSON/CSV records.
	ID       string
	Platform *platform.Platform
	Solver   steady.Solver
}

// Outcome is the terminal state of one job.
type Outcome struct {
	// JobID echoes Job.ID.
	JobID string
	// Solver is the solver name, Key the cache key the job resolved
	// to (platform fingerprint + solver name).
	Solver string
	Key    string
	// Result is the solved problem; nil when Err is set.
	Result *steady.Result
	Err    error
	// CacheHit reports that the job reused a result another job
	// solved (or was already solving) rather than running its own LP.
	CacheHit bool
	// Elapsed is the wall time from job pickup to completion; for a
	// cache hit on an in-flight key it includes the wait.
	Elapsed time.Duration
}

// Stats are cumulative engine counters.
type Stats struct {
	// Solves is the number of LPs actually solved (cache misses).
	Solves int64
	// CacheHits is the number of jobs served from the cache.
	CacheHits int64
}

// entry is one cache slot. done is closed once res/err are final, so
// concurrent duplicates block on it instead of re-solving.
type entry struct {
	done chan struct{}
	res  *steady.Result
	err  error
}

// Engine is a concurrent batch solver with a sharded LP-solution
// cache (see Cache). The zero value is not usable; construct with
// New, NewBounded, or NewWithCache. An Engine may be reused across
// Run/Stream calls and retains its cache, so repeated sweeps over
// overlapping platform families hit more and more. The cache is
// bounded (DefaultCacheBound entries unless NewBounded says
// otherwise); when full, a completed entry is evicted per insertion,
// so a long-lived engine's memory stays bounded too.
type Engine struct {
	workers int
	cache   *Cache
}

// DefaultCacheBound is the cache capacity used by New, in entries.
// Each entry retains the solved platform and its full exact solution,
// so the bound caps the engine's memory, not just map size.
const DefaultCacheBound = 4096

// New returns an Engine running at most workers concurrent solves,
// with the default cache bound. workers <= 0 selects GOMAXPROCS.
func New(workers int) *Engine { return NewBounded(workers, DefaultCacheBound) }

// NewBounded is New with an explicit cache capacity; cacheBound <= 0
// means unbounded.
func NewBounded(workers, cacheBound int) *Engine {
	return NewWithCache(workers, NewCache(DefaultCacheShards, cacheBound))
}

// NewWithCache builds an Engine over an existing cache, so several
// consumers (for example pkg/steady/server's solve handler and its
// sweep engine) share one result set. workers <= 0 selects
// GOMAXPROCS.
func NewWithCache(workers int, cache *Cache) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cache == nil {
		cache = NewCache(DefaultCacheShards, DefaultCacheBound)
	}
	return &Engine{workers: workers, cache: cache}
}

// Workers returns the engine's parallelism bound.
func (e *Engine) Workers() int { return e.workers }

// Cache returns the engine's LP-solution cache.
func (e *Engine) Cache() *Cache { return e.cache }

// Stats returns a snapshot of the cumulative counters.
func (e *Engine) Stats() Stats {
	cs := e.cache.Stats()
	return Stats{Solves: cs.Solves, CacheHits: cs.Hits}
}

// Run solves all jobs with bounded parallelism and returns their
// outcomes in job order. A canceled context marks the remaining jobs
// with ctx.Err() rather than abandoning them silently.
func (e *Engine) Run(ctx context.Context, jobs []Job) []Outcome {
	out := make([]Outcome, len(jobs))
	e.execute(ctx, jobs, func(i int, o Outcome) error {
		out[i] = o
		return nil
	})
	return out
}

// Sink receives outcomes as they complete. Calls are serialized by
// the engine, so a Sink may write to a shared stream without its own
// locking. A non-nil error stops the run: in-flight jobs finish, the
// remaining ones are dropped, and the error is returned from Stream.
type Sink func(Outcome) error

// Stream solves all jobs with bounded parallelism, delivering each
// outcome to sink in completion order (not job order).
func (e *Engine) Stream(ctx context.Context, jobs []Job, sink Sink) error {
	return e.execute(ctx, jobs, func(_ int, o Outcome) error {
		return sink(o)
	})
}

func (e *Engine) execute(ctx context.Context, jobs []Job, emit func(int, Outcome) error) error {
	return Pool(ctx, e.workers, len(jobs),
		func(ctx context.Context, i int) Outcome { return e.Solve(ctx, jobs[i]) },
		func(i int, err error) Outcome {
			return Outcome{JobID: jobs[i].ID, Solver: solverName(jobs[i]), Err: err}
		},
		emit)
}

func solverName(j Job) string {
	if j.Solver == nil {
		return ""
	}
	return j.Solver.Name()
}

// Solve resolves one job against the cache on the caller's goroutine,
// running the LP only for the first job to claim its key. Errors are
// cached alongside results: an infeasible or malformed instance fails
// once, not once per duplicate. Run and Stream call it from their
// worker pool; a caller that already has a goroutine per job (a
// simulation sweep cell) calls it directly.
func (e *Engine) Solve(ctx context.Context, job Job) Outcome {
	start := time.Now()
	o := Outcome{JobID: job.ID, Solver: solverName(job)}
	if job.Solver == nil || job.Platform == nil {
		o.Err = fmt.Errorf("batch: job %q needs a platform and a solver", job.ID)
		o.Elapsed = time.Since(start)
		return o
	}
	o.Key = KeyFor(job.Platform, job.Solver)
	o.Result, o.Err, o.CacheHit = e.cache.DoSolve(ctx, o.Key, o.Solver, func(sctx context.Context, opts ...steady.SolveOption) (*steady.Result, error) {
		return job.Solver.Solve(sctx, job.Platform, opts...)
	})
	o.Elapsed = time.Since(start)
	return o
}

func canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
