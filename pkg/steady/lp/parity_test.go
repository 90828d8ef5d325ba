package lp_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/pkg/steady/lp"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

// TestFloatFirstParityMasterSlave is the parity family of the paper's
// own LP: the §3.1 master-slave program of 50 generated platforms —
// trees, grids, rings, cliques and random connected graphs, ten seeds
// each — and of the 64 n=48 platforms of the served cold miss
// (BenchmarkLPColdMiss48), under both port models, solved float-first
// and by the exact walk forced. The two must be byte-identical in
// everything a solve returns: status, objective, every value and dual,
// and the encoded basis; and the float-first optimum must pass the
// duality certificate. Each solve's basis, re-installed, encodes by
// walking the engine's inB to what sorting its basis list gave, and
// maps back to the same columns (BasisRoundTrip). The n=48 platforms are where Dantzig's rule
// decides most: on several of them the walk under pure Bland's rule
// took 30 pivots or more, and the test checks it still does.
func TestFloatFirstParityMasterSlave(t *testing.T) {
	var plats []*platform.Platform
	for seed := int64(1); seed <= 10; seed++ {
		plats = append(plats,
			platform.Tree(rand.New(rand.NewSource(seed)), 2, 2, 5, 5),
			platform.Grid(rand.New(rand.NewSource(seed)), 3, 3, 5, 5),
			platform.Ring(rand.New(rand.NewSource(seed)), 8, 5, 5),
			platform.Clique(rand.New(rand.NewSource(seed)), 5, 5, 5),
			platform.RandomConnected(rand.New(rand.NewSource(seed)), 10, 8, 5, 5, 0.2),
		)
	}
	small := len(plats)
	for i := 0; i < 64; i++ {
		plats = append(plats, platform.RandomConnected(rand.New(rand.NewSource(int64(4800+i))), 48, 48, 5, 5, 0.15))
	}
	longBland := 0
	for pi, p := range plats {
		for _, pm := range []core.PortModel{core.SendAndReceive, core.SendOrReceive} {
			m, err := core.MasterSlaveModel(p, 0, pm)
			if err != nil {
				t.Fatal(err)
			}
			ff, err := m.Solve()
			if err != nil {
				t.Fatalf("platform %d, %v: %v", pi, pm, err)
			}
			exact, err := lp.SolveExactWalk(m)
			if err != nil {
				t.Fatalf("platform %d, %v: exact walk: %v", pi, pm, err)
			}
			if ff.Status != lp.Optimal || exact.Status != lp.Optimal {
				t.Fatalf("platform %d, %v: status float-first %v, exact walk %v", pi, pm, ff.Status, exact.Status)
			}
			if pi >= small {
				bland, err := lp.SolveBland(m)
				if err != nil {
					t.Fatalf("platform %d, %v: pure Bland: %v", pi, pm, err)
				}
				if bland.Info.FloatPivots >= 30 {
					longBland++
				}
			}
			duals := func(s *lp.Solution) []rat.Rat {
				y := make([]rat.Rat, m.NumCons())
				for i := range y {
					y[i] = s.Dual(i)
				}
				return y
			}
			if err := m.CheckOptimal(ff.Values(), duals(ff)); err != nil {
				t.Fatalf("platform %d, %v: float-first: %v", pi, pm, err)
			}
			for _, sol := range []*lp.Solution{ff, exact} {
				if err := lp.BasisRoundTrip(m, sol); err != nil {
					t.Fatalf("platform %d, %v: %v", pi, pm, err)
				}
			}
			if !ff.Objective.Equal(exact.Objective) ||
				!slices.EqualFunc(ff.Values(), exact.Values(), rat.Rat.Equal) ||
				!slices.EqualFunc(duals(ff), duals(exact), rat.Rat.Equal) ||
				!lp.EqualBases(ff, exact) {
				t.Fatalf("platform %d, %v: float-first %v at %v; exact walk %v at %v, or another basis",
					pi, pm, ff.Objective, ff.Values(), exact.Objective, exact.Values())
			}
		}
	}
	t.Logf("%d n=48 solves took 30 or more pivots under pure Bland", longBland)
	if longBland < 5 {
		t.Fatalf("%d n=48 solves took 30 or more pivots under pure Bland, want at least 5", longBland)
	}
}
