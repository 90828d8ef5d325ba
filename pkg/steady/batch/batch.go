// Package batch solves many steady-state problems concurrently on
// top of the pkg/steady facade.
//
// Its two pieces compose: Pool runs jobs on a bounded set of workers,
// and Cache deduplicates their LP solves by (steady.Fingerprint(platform),
// solver.Name()) (KeyFor): submitting the same platform/solver pair
// twice — even concurrently — solves the LP once. A sweep is a Pool
// whose jobs go through one Cache: cmd/experiments -batch runs one over
// a Cache of its own, and pkg/steady/server's /v1/sweep and
// /v1/simsweep over the server's shared cache, through the same
// pipeline as /v1/solve. A simulation grid in-process is the same
// shape: solve each cell through a Cache, then pkg/steady/sim's
// Engine.Run the result under the cell's scenario.
// Steady-state LPs are pure functions of their platform, so their
// results are safely shareable.
//
// An Outcome is the terminal state of one Job, and the JSONSink and
// CSVSink adapters stream outcomes as records while a sweep completes.
package batch

import (
	"context"
	"errors"
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

// Sink receives outcomes as they complete. Pool serializes its emits,
// so a Sink called from one may write to a shared stream without its
// own locking; a non-nil error stops the sweep.
type Sink func(Outcome) error

// entry is one cache slot. done is closed once res/err are final, so
// concurrent duplicates block on it instead of re-solving.
type entry struct {
	done chan struct{}
	res  *steady.Result
	err  error
}

// DefaultCacheBound is the capacity, in entries, of a long-lived cache
// such as pkg/steady/server's. An entry retains the solved platform and
// its exact solution, 12.9 KB for n=48 masterslave (≈ 53 MB for 4096;
// steady's TestCachedResultFootprint), so the bound caps the memory.
const DefaultCacheBound = 4096

func canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
