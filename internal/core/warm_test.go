package core

import (
	"math/rand"
	"testing"

	"repro/pkg/steady/lp"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

// perturbPlatform returns a platform with the same topology and
// compute/forwarder pattern as base but with node weights and edge
// costs shifted by a small step — the shape of a sweep family or of
// the §5.5 adaptive loop's re-estimated platform.
func perturbPlatform(base *platform.Platform, step int64) *platform.Platform {
	q := platform.New()
	for i := 0; i < base.NumNodes(); i++ {
		w := base.Weight(i)
		if !w.Inf {
			w = platform.W(w.Val.Add(rat.New(step, 103)))
		}
		q.AddNode(base.Name(i), w)
	}
	for _, ed := range base.Edges() {
		q.AddEdge(ed.From, ed.To, ed.C.Add(rat.New(step, 101)))
	}
	return q
}

// TestWarmStartMasterSlaveSweepFamily is the acceptance check on the
// paper's own LPs: re-solving a family of structurally identical
// master-slave instances from the previous member's optimal basis
// must use at least 5x fewer exact pivots than cold solves take float
// and exact pivots together, while
// returning certified results whose objectives match the cold
// solves' exactly.
func TestWarmStartMasterSlaveSweepFamily(t *testing.T) {
	base := platform.RandomConnected(rand.New(rand.NewSource(42)), 12, 12, 5, 5, 0.15)
	coldPivots, warmPivots, warmSolves := 0, 0, 0
	var basis *lp.Basis
	for step := int64(0); step < 10; step++ {
		p := perturbPlatform(base, step)
		cold, err := SolveMasterSlave(p, 0)
		if err != nil {
			t.Fatalf("step %d: cold: %v", step, err)
		}
		warm, err := SolveMasterSlavePortOpts(p, 0, SendAndReceive, &lp.Options{WarmBasis: basis})
		if err != nil {
			t.Fatalf("step %d: warm: %v", step, err)
		}
		// Solve*'s internal Check() has already re-verified the warm
		// solution against every SSMS equation; the objective must be
		// the exact cold optimum.
		if !warm.Throughput.Equal(cold.Throughput) {
			t.Fatalf("step %d: warm throughput %v != cold %v", step, warm.Throughput, cold.Throughput)
		}
		if step > 0 {
			coldPivots += cold.LP.FloatPivots + cold.LP.Pivots
			warmPivots += warm.LP.Pivots
			if warm.LP.WarmStarted {
				warmSolves++
			}
		}
		basis = warm.Basis
	}
	if warmSolves == 0 {
		t.Fatalf("no re-solve accepted its warm basis")
	}
	t.Logf("cold pivots %d, warm pivots %d over %d warm re-solves", coldPivots, warmPivots, warmSolves)
	if warmPivots*5 > coldPivots {
		t.Fatalf("warm re-solves took %d pivots vs %d cold — want >= 5x reduction", warmPivots, coldPivots)
	}
}

// TestWarmStartThroughFloatScreen: a warm basis is judged in float64
// before the exact engine sees it. A neighbour's basis — the same
// platform with every link cost scaled — must pass, and the solve must
// certify the cold solve's throughput. That a passed basis is solved as
// the exact install alone would solve it is lp's TestFloatScreen.
func TestWarmStartThroughFloatScreen(t *testing.T) {
	base := platform.RandomConnected(rand.New(rand.NewSource(42)), 12, 12, 5, 5, 0.15)
	first, err := SolveMasterSlave(base, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, scale := range []rat.Rat{rat.New(3, 2), rat.New(2, 3), rat.FromInt(3)} {
		scaled := platform.New()
		for i := 0; i < base.NumNodes(); i++ {
			scaled.AddNode(base.Name(i), base.Weight(i))
		}
		for _, ed := range base.Edges() {
			scaled.AddEdge(ed.From, ed.To, ed.C.Mul(scale))
		}
		screened, err := SolveMasterSlavePortOpts(scaled, 0, SendAndReceive, &lp.Options{WarmBasis: first.Basis})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := SolveMasterSlave(scaled, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !screened.LP.WarmStarted {
			t.Fatalf("scale %v: a neighbour's basis refused: %+v", scale, screened.LP)
		}
		if !screened.Throughput.Equal(cold.Throughput) {
			t.Fatalf("scale %v: warm throughput %v, cold %v", scale, screened.Throughput, cold.Throughput)
		}
		t.Logf("scale %v: warm, %d pivots", scale, screened.LP.Pivots)
	}
}
