package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/pkg/steady/lp"
	"repro/pkg/steady/platform"
)

// TestExactFloatParityAllSolvers is the drift guard between the two
// LP engines: random platforms are run through the model builders
// behind every registered pkg/steady solver — masterslave under both
// port models, scatter, the multicast sum-LP, the max-operator bound
// (which also backs broadcast and, on the reversed platform, reduce)
// and the tree packing — and the float64 simplex must agree with the
// exact rational optimum within tolerance. If the exact engine is
// ever rewritten again, this is the test that catches a divergence
// before the goldens do.
func TestExactFloatParityAllSolvers(t *testing.T) {
	check := func(t *testing.T, name string, m *lp.Model) {
		t.Helper()
		exact, err := m.Solve()
		if err != nil {
			t.Fatalf("%s: exact: %v", name, err)
		}
		fl, err := m.SolveFloat()
		if err != nil {
			t.Fatalf("%s: float: %v", name, err)
		}
		if exact.Status != fl.Status {
			t.Fatalf("%s: exact status %v, float status %v", name, exact.Status, fl.Status)
		}
		if exact.Status != lp.Optimal {
			return
		}
		e := exact.Objective.Float64()
		tol := 1e-6 * math.Max(1, math.Abs(e))
		if d := math.Abs(e - fl.Objective); d > tol {
			t.Fatalf("%s: exact obj %v, float obj %v (diff %g)", name, exact.Objective, fl.Objective, d)
		}
	}

	for trial := int64(0); trial < 8; trial++ {
		rng := rand.New(rand.NewSource(100 + trial))
		n := 5 + rng.Intn(5)
		p := platform.RandomConnected(rng, n, n, 5, 5, 0.15)
		targets := []int{1, 2}
		if n > 6 {
			targets = append(targets, 3)
		}

		for _, pm := range []PortModel{SendAndReceive, SendOrReceive} {
			mm, err := buildMasterSlaveModel(p, 0, onePortRows(pm))
			if err != nil {
				t.Fatal(err)
			}
			check(t, "masterslave/"+pm.String(), mm.m)
		}
		for _, maxOp := range []bool{false, true} {
			name := "scatter"
			if maxOp {
				name = "multicast-bound"
			}
			dm, err := buildDistributionModel(p, scatterFlows(0, targets), SendAndReceive, maxOp)
			if err != nil {
				t.Fatal(err)
			}
			check(t, name, dm.m)
		}
		// Reduce is the max-operator bound on the reversed platform.
		rdm, err := buildDistributionModel(p.Reverse(), scatterFlows(0, targets), SendAndReceive, true)
		if err != nil {
			t.Fatal(err)
		}
		check(t, "reduce-bound", rdm.m)
	}

	// Tree packing on the paper's Figure 2 (small enough to
	// enumerate).
	p2 := platform.Figure2()
	trees, err := EnumerateMulticastTrees(p2, p2.NodeByName("P0"), platform.Figure2Targets(p2))
	if err != nil {
		t.Fatal(err)
	}
	m, _ := buildTreePackingModel(p2, trees)
	check(t, "multicast-trees", m)
}
