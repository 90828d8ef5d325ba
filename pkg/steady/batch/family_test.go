package batch_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/pkg/steady"
	"repro/pkg/steady/batch"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

// familyPlatforms builds a (seed,size)-style sweep family: one
// random topology, cost/weight perturbations per member, so every
// member's LP has the same shape.
func familyPlatforms(n int) []*platform.Platform {
	base := platform.RandomConnected(rand.New(rand.NewSource(17)), 10, 10, 5, 5, 0.15)
	out := make([]*platform.Platform, n)
	for step := range out {
		q := platform.New()
		for i := 0; i < base.NumNodes(); i++ {
			w := base.Weight(i)
			if !w.Inf {
				w = platform.W(w.Val.Add(rat.New(int64(step), 103)))
			}
			q.AddNode(base.Name(i), w)
		}
		for _, ed := range base.Edges() {
			q.AddEdge(ed.From, ed.To, ed.C.Add(rat.New(int64(step), 101)))
		}
		out[step] = q
	}
	return out
}

// runFamily sweeps an 8-member family through a one-worker engine,
// holds every result byte-identical to a fresh solve of the same
// platform (which is also the never-cache-uncertified guarantee: what
// the cache returned IS what a solve certifies, and no member primed
// another), and returns the cache's counters.
func runFamily(t *testing.T) batch.CacheStats {
	t.Helper()
	solver, err := steady.New(steady.Spec{Problem: "masterslave"})
	if err != nil {
		t.Fatal(err)
	}
	plats := familyPlatforms(8)
	jobs := make([]batch.Job, len(plats))
	for i, p := range plats {
		jobs[i] = batch.Job{ID: fmt.Sprintf("fam%d", i), Platform: p, Solver: solver}
	}
	eng := batch.New(1)
	for i, o := range eng.Run(context.Background(), jobs) {
		if o.Err != nil {
			t.Fatalf("job %d: %v", i, o.Err)
		}
		fresh, err := solver.Solve(context.Background(), plats[i])
		if err != nil {
			t.Fatal(err)
		}
		if !o.Result.Throughput.Equal(fresh.Throughput) {
			t.Fatalf("job %d: cached throughput %v != fresh %v", i, o.Result.Throughput, fresh.Throughput)
		}
		for l := range fresh.Links {
			if !o.Result.Links[l].Busy.Equal(fresh.Links[l].Busy) {
				t.Fatalf("job %d link %d: cached %v != fresh %v",
					i, l, o.Result.Links[l].Busy, fresh.Links[l].Busy)
			}
		}
	}
	cs := eng.Cache().Stats()
	if cs.Solves != int64(len(jobs)) {
		t.Fatalf("%d solves, want %d", cs.Solves, len(jobs))
	}
	return cs
}
