package core

import (
	"math/rand"
	"testing"

	"repro/pkg/steady/lp"
	"repro/pkg/steady/platform"
)

// TestExactFloatParityAllSolvers is the drift guard of the LP layer:
// random platforms are run through the model builders behind every
// registered pkg/steady solver — masterslave under both port models,
// scatter, the multicast sum-LP, the max-operator bound (which also
// backs broadcast and, on the reversed platform, reduce) and the tree
// packing — and behind the solvers only internal/core exposes
// (multiport, fixed card wiring, all-to-all). Each LP is solved — a
// float search, certified exactly — and its optimum must pass the
// duality certificate, which shares no code with the engine; the float
// walk the certificate repairs or abandons is held to the exact walk in
// pkg/steady/lp's parity tests. If the engine is ever rewritten again,
// or a pricing rule moves a vertex, this is the test that says whether
// the new answer is still an optimum — before the goldens say it is a
// different one.
func TestExactFloatParityAllSolvers(t *testing.T) {
	check := func(t *testing.T, name string, m *lp.Model) {
		t.Helper()
		sol, err := m.Solve()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sol.Status != lp.Optimal {
			t.Fatalf("%s: status %v", name, sol.Status)
		}
		Certify(t, name, m, sol)
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
			mm, err := buildMasterSlaveModel(p, 0, onePortRows(pm), nil)
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
			dm, err := buildDistributionModel(p, scatterFlows(0, targets), SendAndReceive, maxOp, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			check(t, name, dm.m)
		}
		// Reduce is the max-operator bound on the reversed platform.
		rdm, err := buildDistributionModel(p.Reverse(), scatterFlows(0, targets), SendAndReceive, true, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		check(t, "reduce-bound", rdm.m)

		// All-to-all: one commodity per ordered pair of participants.
		var pairs [][2]int
		for _, a := range targets {
			for _, b := range targets {
				if a != b {
					pairs = append(pairs, [2]int{a, b})
				}
			}
		}
		am, err := buildDistributionModel(p, pairs, SendAndReceive, false, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		check(t, "all-to-all", am.m)

		caps := UniformPorts(p, 2)
		for name, rows := range map[string]portRows{"multiport": caps.rows, "cards": RoundRobinCards(p, caps).rows} {
			mm, err := buildMasterSlaveModel(p, 0, rows, nil)
			if err != nil {
				t.Fatal(err)
			}
			check(t, name, mm.m)
		}
	}

	// Tree packing on the paper's Figure 2 (small enough to
	// enumerate).
	p2 := platform.Figure2()
	trees, err := EnumerateMulticastTrees(p2, p2.NodeByName("P0"), platform.Figure2Targets(p2), nil)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := buildTreePackingModel(p2, trees, nil)
	check(t, "multicast-trees", m)
}
