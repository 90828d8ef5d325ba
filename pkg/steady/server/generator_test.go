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

// TestJobKeysMatchKeyFor: the sweep endpoints key a job's platform
// once per distinct pointer, and every key is the one batch.KeyFor
// spells, for a generator's shared platforms and for equal-content
// platforms behind distinct pointers alike.
func TestJobKeysMatchKeyFor(t *testing.T) {
	solver, err := steady.New(steady.Spec{Problem: "masterslave"})
	if err != nil {
		t.Fatal(err)
	}
	g := server.Generator{Count: 12, Seed: 3}
	jobs, err := g.Jobs(solver)
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs,
		batch.Job{ID: "a", Platform: platform.Figure1(), Solver: solver},
		batch.Job{ID: "b", Platform: platform.Figure1(), Solver: solver})
	keys := server.JobKeys(jobs)
	for i, job := range jobs {
		if want := batch.KeyFor(job.Platform, job.Solver); keys[i] != want {
			t.Errorf("%s: key %q, want %q", job.ID, keys[i], want)
		}
	}
}

// sweepRecords solves jobs in order through a new cache and returns
// their records with the elapsed times zeroed.
func sweepRecords(t *testing.T, jobs []batch.Job) []server.SweepRecord {
	t.Helper()
	cache := batch.NewCache(0, 0)
	out := make([]server.SweepRecord, len(jobs))
	for i, job := range jobs {
		res, err, hit := cache.DoSolve(context.Background(), batch.KeyFor(job.Platform, job.Solver), job.Solver.Name(),
			func(ctx context.Context, opts ...steady.SolveOption) (*steady.Result, error) {
				return job.Solver.Solve(ctx, job.Platform, opts...)
			})
		if err != nil {
			t.Fatalf("%s: %v", job.ID, err)
		}
		out[i] = server.SweepRecord{Job: job.ID, Solver: job.Solver.Name(), Platform: res.Fingerprint,
			Tput: res.Throughput.String(), Value: res.ThroughputFloat(), CacheHit: hit}
	}
	return out
}
