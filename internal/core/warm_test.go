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
// must take at least 5x fewer float and repair pivots than cold solves
// take, while returning certified results whose objectives match the
// cold solves' exactly.
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
			warmPivots += warm.LP.FloatPivots + warm.LP.Pivots
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
		t.Logf("scale %v: warm, %d float and %d repair pivots", scale, screened.LP.FloatPivots, screened.LP.RepairPivots)
	}
}

// reweightedFamily is one topology with its weights and costs re-drawn
// in 1–5 per member: RandomConnected's platform from rng, then members
// drawn from the same rng. A forward-only node stays one.
func reweightedFamily(rng *rand.Rand, n, members int) []*platform.Platform {
	base := platform.RandomConnected(rng, n, n, 5, 5, 0.15)
	out := make([]*platform.Platform, members)
	for k := range out {
		q := platform.New()
		for i := 0; i < base.NumNodes(); i++ {
			w := base.Weight(i)
			if !w.Inf {
				w = platform.WInt(1 + rng.Int63n(5))
			}
			q.AddNode(base.Name(i), w)
		}
		for _, ed := range base.Edges() {
			q.AddEdge(ed.From, ed.To, rat.FromInt(1+rng.Int63n(5)))
		}
		out[k] = q
	}
	return out
}

// TestWarmStartScatterFamilyIsBounded: a scatter from N0 to N12, N24
// and N36 over one n=48 topology, eight members re-drawn in 1–5. Hinted by the previous member's basis, an
// exact walk from the hint under the full pivot budget once ran into a
// 10 s deadline on such a family. A hint now only seeds the float
// search: every member is certified with at most 32 + rows exact pivots
// (the repair budget, rows bounded by the model's constraints and
// variables), or runs cold — the cold search's own walk, pivot for
// pivot — and reaches the cold solve's throughput.
func TestWarmStartScatterFamilyIsBounded(t *testing.T) {
	family := reweightedFamily(rand.New(rand.NewSource(7)), 48, 8)
	targets := []int{12, 24, 36}
	var basis *lp.Basis
	warm := 0
	for k, p := range family {
		m, err := DistributionLP(p, 0, targets, SendAndReceive, false)
		if err != nil {
			t.Fatal(err)
		}
		rows := m.NumCons() + m.NumVars()
		hinted, err := SolveScatterPortOpts(p, 0, targets, SendAndReceive, &lp.Options{WarmBasis: basis})
		if err != nil {
			t.Fatalf("member %d: hinted: %v", k, err)
		}
		cold, err := SolveScatterPort(p, 0, targets, SendAndReceive)
		if err != nil {
			t.Fatalf("member %d: cold: %v", k, err)
		}
		if !hinted.Throughput.Equal(cold.Throughput) {
			t.Fatalf("member %d: hinted throughput %v, cold %v", k, hinted.Throughput, cold.Throughput)
		}
		info := hinted.LP
		if info.WarmStarted {
			warm++
			if info.Pivots != info.RepairPivots || info.Pivots > 32+rows {
				t.Fatalf("member %d: warm start took %+v, want at most %d exact pivots, all repairs", k, info, 32+rows)
			}
		} else if info != cold.LP {
			t.Fatalf("member %d: a refused hint walked %+v, the cold search %+v", k, info, cold.LP)
		}
		t.Logf("member %d: warm %v, %d float and %d exact pivots (cold: %d float)", k, info.WarmStarted, info.FloatPivots, info.Pivots, cold.LP.FloatPivots)
		basis = hinted.Basis
	}
	t.Logf("%d of %d hints accepted", warm, len(family)-1)
}
