// Package batch solves many steady-state problems concurrently on
// top of the pkg/steady facade.
//
// Its two pieces compose: Pool runs jobs on a bounded set of workers,
// and Cache deduplicates their LP solves by (steady.Fingerprint(platform),
// solver.Name()) (KeyFor): submitting the same platform/solver pair
// twice — even concurrently — solves the LP once. A sweep is a Pool
// whose jobs go through one Cache: pkg/steady/server's /v1/sweep and
// /v1/simsweep run theirs over the server's shared cache, through the
// same pipeline as /v1/solve, and stream each job's record as it
// completes (cmd/experiments -batch runs the same sweep on an
// in-process server). A simulation grid in-process is the same shape:
// solve each cell through a Cache, then pkg/steady/sim's Engine.Run the
// result under the cell's scenario.
// Steady-state LPs are pure functions of their platform, so their
// results are safely shareable.
package batch

import (
	"context"
	"errors"

	"repro/pkg/steady"
	"repro/pkg/steady/platform"
)

// Job pairs a platform with the solver to run on it.
type Job struct {
	// ID is an optional caller-chosen label, carried through to a
	// sweep's records.
	ID       string
	Platform *platform.Platform
	Solver   steady.Solver
}

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
