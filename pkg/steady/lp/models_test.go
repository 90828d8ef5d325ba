package lp

import (
	"math/rand"
	"testing"

	"repro/pkg/steady/platform"
)

// randomSeededLEModel builds a structurally fixed LP from seed: the
// sparsity pattern, operators and bounds depend only on seed, while
// perturb shifts the constraint coefficients and right-hand sides
// slightly — exactly the shape of a sweep family, where platform
// costs move but the platform graph does not.
func randomSeededLEModel(seed, perturb int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	nVars, nCons := 6+rng.Intn(5), 4+rng.Intn(5)
	return seededLEModel(rng, perturb, nVars, nCons, 2)
}

// wideSeededLEModel is the same family at 60 variables and 16 sparser
// constraints: with the upper-bound rows and the four zero-rhs rows
// added here that is 80 standardized rows and, under Bland's rule, more
// than 64 pivots on most seeds: several times the engine's
// refactorization interval (reinvertEvery). The zero right-hand sides
// make the first pivots degenerate — what the Dantzig-to-Bland fallback
// keys on.
func wideSeededLEModel(seed, perturb int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	m := seededLEModel(rng, perturb, 60, 16, 4)
	for c := 0; c < 4; c++ {
		e := Expr{}
		for v := 0; v < m.NumVars(); v++ {
			if rng.Intn(4) == 0 {
				e = append(e, Term{Var(v), ri(int64(rng.Intn(7) - 2))})
			}
		}
		m.Le("z", e, ri(0))
	}
	return m
}

// wideRHSScaledModel is wideSeededLEModel(9, 0) with every constraint's
// right-hand side scaled by num/4: shrinking num leaves the optimal
// basis dual feasible and makes it primal infeasible.
func wideRHSScaledModel(num int64) *Model {
	m := wideSeededLEModel(9, 0)
	for i := range m.cons {
		m.cons[i].rhs = m.cons[i].rhs.Mul(rr(num, 4))
	}
	return m
}

// mixedSeededModel is randomMixedModel from seed: GE and EQ rows through
// a known point, most with nonzero right-hand sides, so a cold solve runs
// phase 1 where the other families start from the crash basis. perturb
// shifts each objective term by perturb/97.
func mixedSeededModel(seed, perturb int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	m, _ := randomMixedModel(rng, 3+rng.Intn(6))
	for v := range m.obj {
		m.obj[v] = m.obj[v].Add(rr(perturb, 97))
	}
	return m
}

// blockAngularSeededModel is the §3.3 broadcast bound of a small random
// platform: seed fixes the graph, perturb shifts the link costs.
func blockAngularSeededModel(seed, perturb int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	n := 5 + rng.Intn(4)
	return broadcastBoundModel(platform.RandomConnected(rng, n, rng.Intn(n+1), 5, 5, 0), perturb)
}

// broadcastBoundModel builds the §3.3 broadcast bound of p from node 0
// (strongly connected, so every other node is a target) — the shape of
// the paper's collective LPs: one flow per target (conservation and
// delivery equalities over that target's own send variables), the
// flows coupled only through the shared link rows send(e,k)·c_e <= s_e
// and the one-port rows over s. Its bases are network bases, which the
// LE families' are not. Variables and rows come in the order
// internal/core builds them (which this package cannot import), so at
// perturb 0 a solve walks the pivots of core.SolveBroadcastBound(p, 0);
// perturb shifts every link cost by perturb/97.
func broadcastBoundModel(p *platform.Platform, perturb int64) *Model {
	n, nE := p.NumNodes(), p.NumEdges()
	m := NewModel()
	s := make([]Var, nE)
	for e := range s {
		s[e] = m.VarRange("s", ri(1))
	}
	send := make([][]Var, nE) // send[e][k-1]: messages for node k on link e
	for e := range send {
		send[e] = make([]Var, n-1)
		for k := range send[e] {
			send[e][k] = m.Var("send")
		}
	}
	tp := m.Var("TP")
	m.Objective(Maximize, Expr{{tp, ri(1)}})
	for i := 0; i < n; i++ {
		var out, in Expr
		for _, e := range p.OutEdges(i) {
			out = append(out, Term{s[e], ri(1)})
		}
		for _, e := range p.InEdges(i) {
			in = append(in, Term{s[e], ri(1)})
		}
		m.Le("out-port", out, ri(1))
		m.Le("in-port", in, ri(1))
	}
	for e := range s {
		c := p.Edge(e).C.Add(rr(perturb, 97))
		for k := range send[e] {
			m.Le("share", Expr{{send[e][k], c}, {s[e], ri(-1)}}, ri(0))
		}
	}
	// net is what node i keeps of flow k: in minus out.
	net := func(i, k int) Expr {
		var ex Expr
		for _, e := range p.InEdges(i) {
			ex = append(ex, Term{send[e][k], ri(1)})
		}
		for _, e := range p.OutEdges(i) {
			ex = append(ex, Term{send[e][k], ri(-1)})
		}
		return ex
	}
	for i := 1; i < n; i++ {
		for k := 0; k < n-1; k++ {
			if i != k+1 {
				m.Eq("conserve", net(i, k), ri(0))
			}
		}
	}
	for k := 0; k < n-1; k++ {
		m.Eq("deliver", append(Expr{{tp, ri(-1)}}, net(k+1, k)...), ri(0))
	}
	return m
}

func seededLEModel(rng *rand.Rand, perturb int64, nVars, nCons, sparsity int) *Model {
	m := NewModel()
	vars := make([]Var, nVars)
	for i := range vars {
		vars[i] = m.VarRange("x", ri(int64(rng.Intn(8)+1)))
	}
	obj := Expr{}
	for _, v := range vars {
		obj = append(obj, Term{v, ri(int64(rng.Intn(11) - 3))})
	}
	m.Objective(Maximize, obj)
	for c := 0; c < nCons; c++ {
		e := Expr{}
		for _, v := range vars {
			if rng.Intn(sparsity) == 0 {
				num := int64(rng.Intn(9) + 1)
				den := int64(rng.Intn(3)+1) * 97
				e = append(e, Term{v, rr(num*97+perturb, den)})
			}
		}
		if len(e) == 0 {
			e = append(e, Term{vars[0], ri(1)})
		}
		rhs := int64(rng.Intn(20)+1) * 97
		m.Le("r", e, rr(rhs+perturb, 97))
	}
	return m
}

// TestEmptyHintIsNotUnbounded: a hint that names no column leaves every
// row to padding, and on an equality row the padding is an artificial —
// banned from entering, free to grow. A ray along which one grows is a
// ray of the relaxation that drops the row, not of the LP: reoptimize
// once reported it as Unbounded where the exact walk certifies an
// optimum. It must refuse the hint instead, for the exact walk to answer.
func TestEmptyHintIsNotUnbounded(t *testing.T) {
	m := blockAngularSeededModel(1, 0)
	cold, err := m.SolveOpts(&Options{exactWalk: true})
	if err != nil || cold.Status != Optimal {
		t.Fatalf("cold: %v %v", cold, err)
	}
	s := m.standardize(nil)
	sol, why := solveFromBasis(s, nil, m.resolveParams(nil, len(s.rows), len(s.cols)))
	if why != "" {
		return
	}
	if sol.Status != Optimal || !sol.Objective.Equal(cold.Objective) {
		t.Fatalf("the empty hint answered %v at %v, the exact walk is optimal at %v", sol.Status, sol.Objective, cold.Objective)
	}
	if err := m.CheckOptimal(sol.values, sol.duals); err != nil {
		t.Fatal(err)
	}
}
