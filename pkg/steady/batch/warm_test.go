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
// member's LP has the same shape and the engine's cached basis can
// warm-start each next miss.
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

// runFamily sweeps an 8-member family through a one-worker engine —
// deterministic solve order, so every miss after the first finds its
// predecessor's basis in the cache — holds every result byte-identical
// to a fresh pure-exact solve of the same platform (which is also the
// never-cache-uncertified guarantee: what the cache returned IS what
// the exact engine certifies), and returns the cache's counters.
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
		exact, err := solver.Solve(context.Background(), plats[i])
		if err != nil {
			t.Fatal(err)
		}
		if !o.Result.Throughput.Equal(exact.Throughput) {
			t.Fatalf("job %d: cached throughput %v != pure-exact %v", i, o.Result.Throughput, exact.Throughput)
		}
		for l := range exact.Links {
			if !o.Result.Links[l].Busy.Equal(exact.Links[l].Busy) {
				t.Fatalf("job %d link %d: cached %v != pure-exact %v",
					i, l, o.Result.Links[l].Busy, exact.Links[l].Busy)
			}
		}
	}
	cs := eng.Cache().Stats()
	if cs.WarmSolves < int64(len(jobs)-1) {
		t.Fatalf("warm solves %d, want >= %d (every miss after the first)", cs.WarmSolves, len(jobs)-1)
	}
	return cs
}

// TestEngineWarmStartsSweepFamily: a sweep over structurally
// identical platforms must warm-start every miss after the first, at a
// fifth of the cold miss's pivots or fewer.
func TestEngineWarmStartsSweepFamily(t *testing.T) {
	cs := runFamily(t)
	// The cold miss searches in float64 (its exact pivots are ~0, see
	// TestFloatFirstSweepInterplay), so its search length is the float
	// pivots plus whatever exact ones the certificate added.
	cold := cs.FloatPivots + cs.Pivots - cs.WarmPivots
	if cs.WarmPivots*5 > cold {
		t.Fatalf("warm pivots %d vs cold %d — want >= 5x reduction", cs.WarmPivots, cold)
	}
	t.Logf("solves=%d warm=%d float_pivots=%d pivots=%d warm_pivots=%d", cs.Solves, cs.WarmSolves, cs.FloatPivots, cs.Pivots, cs.WarmPivots)
}

// TestWarmStatsExposed: the cache's warm counters are visible
// through Engine.Cache().Stats() and reset-free across Run calls.
func TestWarmStatsExposed(t *testing.T) {
	cs := batch.NewCache(4, 0).Stats()
	if cs.WarmSolves != 0 || cs.Pivots != 0 || cs.WarmPivots != 0 {
		t.Fatalf("fresh cache has nonzero LP counters: %+v", cs)
	}
}
