package server_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/pkg/steady"
	"repro/pkg/steady/batch"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/server"
)

// TestGeneratorBuildsEachPlatformOnce: a generator family has one
// platform per size, and every job of that size shares it. Sweeping
// the family records exactly what sweeping one freshly built platform
// per job records — ids, fingerprints, throughputs, cache hits — less
// the elapsed times.
func TestGeneratorBuildsEachPlatformOnce(t *testing.T) {
	solver, err := steady.New(steady.Spec{Problem: "masterslave"})
	if err != nil {
		t.Fatal(err)
	}
	g := server.Generator{Count: 16, Seed: 7}
	jobs, err := g.Jobs(solver)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{6, 8, 10, 12} // the default
	bySize := map[int]*platform.Platform{}
	fresh := make([]batch.Job, len(jobs))
	for i, job := range jobs {
		size := sizes[i%len(sizes)]
		if p, seen := bySize[size]; !seen {
			bySize[size] = job.Platform
		} else if job.Platform != p {
			t.Fatalf("%s: a second platform of size %d", job.ID, size)
		}
		rng := rand.New(rand.NewSource(g.Seed + int64(size)))
		fresh[i] = batch.Job{ID: fmt.Sprintf("job%02d-n%d", i, size), Platform: platform.RandomConnected(rng, size, size, 5, 5, 0.15), Solver: solver}
	}
	if len(bySize) != len(sizes) {
		t.Fatalf("%d distinct platforms, want %d", len(bySize), len(sizes))
	}
	if got, want := sweepRecords(t, jobs), sweepRecords(t, fresh); !slices.Equal(got, want) {
		t.Fatalf("shared platforms recorded\n%v\nfresh ones\n%v", got, want)
	}
}

// sweepRecords sweeps jobs in order on one worker through a new cache
// and returns their records with the elapsed times zeroed.
func sweepRecords(t *testing.T, jobs []batch.Job) []batch.Record {
	t.Helper()
	cache := batch.NewCache(0, 0)
	var out []batch.Record
	err := batch.Pool(context.Background(), 1, len(jobs),
		func(ctx context.Context, i int) batch.Outcome {
			job := jobs[i]
			o := batch.Outcome{JobID: job.ID, Solver: job.Solver.Name(), Key: batch.KeyFor(job.Platform, job.Solver)}
			o.Result, o.Err, o.CacheHit = cache.DoSolve(ctx, o.Key, o.Solver, func(ctx context.Context, opts ...steady.SolveOption) (*steady.Result, error) {
				return job.Solver.Solve(ctx, job.Platform, opts...)
			})
			return o
		},
		func(i int, err error) batch.Outcome { return batch.Outcome{JobID: jobs[i].ID, Err: err} },
		func(_ int, o batch.Outcome) error {
			r := batch.ToRecord(o)
			r.MicroSec = 0
			out = append(out, r)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
