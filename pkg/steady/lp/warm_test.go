package lp

import (
	"math/rand"
	"slices"
	"testing"

	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
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

// TestSolveFromIdenticalModel: warm-starting a model from its own
// optimal basis must confirm optimality without a single pivot, float or
// exact, and return the identical solution.
func TestSolveFromIdenticalModel(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		m := randomSeededLEModel(seed, 0)
		cold, err := m.Solve()
		if err != nil || cold.Status != Optimal {
			t.Fatalf("seed %d: cold %v %v", seed, cold, err)
		}
		if cold.Info.WarmStarted {
			t.Fatalf("seed %d: cold solve claims warm start", seed)
		}
		if cold.Basis() == nil {
			t.Fatalf("seed %d: optimal solution has no basis", seed)
		}
		m2 := randomSeededLEModel(seed, 0)
		warm, err := m2.SolveFrom(cold.Basis())
		if err != nil || warm.Status != Optimal {
			t.Fatalf("seed %d: warm %v %v", seed, warm, err)
		}
		if !warm.Info.WarmStarted {
			t.Fatalf("seed %d: warm solve fell back to cold", seed)
		}
		if warm.Info.FloatPivots+warm.Info.Pivots != 0 {
			t.Fatalf("seed %d: re-solving the identical model took %+v, want no pivot", seed, warm.Info)
		}
		if !warm.Objective.Equal(cold.Objective) {
			t.Fatalf("seed %d: warm obj %v != cold obj %v", seed, warm.Objective, cold.Objective)
		}
		for v := 0; v < m.NumVars(); v++ {
			if !warm.Value(Var(v)).Equal(cold.Value(Var(v))) {
				t.Fatalf("seed %d: var %d: warm %v != cold %v", seed, v, warm.Value(Var(v)), cold.Value(Var(v)))
			}
		}
	}
}

// TestSolveFromSweepFamily re-solves perturbed neighbors from the
// previous optimal basis and checks (a) exactness — the warm optimum
// equals an independent cold solve's optimum — and (b) the
// acceptance bar: warm re-solves take >= 5x fewer float and repair
// pivots together than the exact walk takes across the family.
func TestSolveFromSweepFamily(t *testing.T) {
	coldPivots, warmPivots, warmSolves := 0, 0, 0
	for seed := int64(1); seed < 9; seed++ {
		var basis *Basis
		for step := int64(0); step < 6; step++ {
			cold, err := randomSeededLEModel(seed, step).SolveOpts(&Options{exactWalk: true})
			if err != nil || cold.Status != Optimal {
				t.Fatalf("seed %d step %d: cold %v %v", seed, step, cold, err)
			}
			warm, err := randomSeededLEModel(seed, step).SolveFrom(basis)
			if err != nil || warm.Status != Optimal {
				t.Fatalf("seed %d step %d: warm %v %v", seed, step, warm, err)
			}
			if !warm.Objective.Equal(cold.Objective) {
				t.Fatalf("seed %d step %d: warm obj %v != cold obj %v", seed, step, warm.Objective, cold.Objective)
			}
			if err := randomSeededLEModel(seed, step).CheckFeasible(warm.Values()); err != nil {
				t.Fatalf("seed %d step %d: warm point infeasible: %v", seed, step, err)
			}
			if step > 0 {
				coldPivots += cold.Info.Pivots
				warmPivots += warm.Info.FloatPivots + warm.Info.Pivots
				if warm.Info.WarmStarted {
					warmSolves++
				}
			}
			basis = warm.Basis()
		}
	}
	if warmSolves == 0 {
		t.Fatalf("no re-solve accepted its warm basis")
	}
	t.Logf("cold pivots %d, warm pivots %d over %d warm re-solves", coldPivots, warmPivots, warmSolves)
	if warmPivots*5 > coldPivots {
		t.Fatalf("warm re-solves took %d pivots vs %d cold — want >= 5x reduction", warmPivots, coldPivots)
	}
}

// TestSolveFromMismatchedBasis: a basis from a differently shaped
// model must be rejected and the solve must fall back to a correct
// cold solve.
func TestSolveFromMismatchedBasis(t *testing.T) {
	donor, err := randomSeededLEModel(3, 0).Solve()
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel()
	x := m.Var("x")
	m.Objective(Maximize, Expr{{x, rat.FromInt(1)}})
	m.Le("cap", Expr{{x, rat.FromInt(2)}}, rat.FromInt(9))
	s, err := m.SolveFrom(donor.Basis())
	if err != nil {
		t.Fatal(err)
	}
	if s.Info.WarmStarted {
		t.Fatalf("mismatched basis was accepted")
	}
	if s.Status != Optimal || !s.Objective.Equal(rat.New(9, 2)) {
		t.Fatalf("fallback solve wrong: %v %v", s.Status, s.Objective)
	}
}

// TestSolveFromWithRedundantRows: a cold solve of a model with
// duplicated equalities drops the redundant rows, so its basis names
// fewer columns than the re-standardized model has rows. Warm start
// must pad the uncovered rows (with banned artificials pinned at
// zero) and still return the exact optimum.
func TestSolveFromWithRedundantRows(t *testing.T) {
	build := func() *Model {
		m := NewModel()
		x, y := m.Var("x"), m.Var("y")
		m.Objective(Maximize, Expr{{x, rat.FromInt(1)}})
		m.Eq("e1", Expr{{x, rat.FromInt(1)}, {y, rat.FromInt(1)}}, rat.FromInt(2))
		m.Eq("e2", Expr{{x, rat.FromInt(1)}, {y, rat.FromInt(1)}}, rat.FromInt(2))
		m.Eq("e3", Expr{{x, rat.FromInt(2)}, {y, rat.FromInt(2)}}, rat.FromInt(4))
		return m
	}
	cold, err := build().Solve()
	if err != nil || cold.Status != Optimal {
		t.Fatalf("cold: %v %v", cold, err)
	}
	if cold.Basis().Len() >= build().NumCons() {
		t.Fatalf("expected a shrunk basis (redundant rows removed), got %d entries", cold.Basis().Len())
	}
	warm, err := build().SolveFrom(cold.Basis())
	if err != nil || warm.Status != Optimal {
		t.Fatalf("warm: %v %v", warm, err)
	}
	if !warm.Objective.Equal(rat.FromInt(2)) {
		t.Fatalf("warm objective %v, want 2", warm.Objective)
	}
	if err := build().CheckFeasible(warm.Values()); err != nil {
		t.Fatal(err)
	}
	if !warm.Info.WarmStarted {
		t.Fatalf("padding path fell back to cold")
	}
}

// TestSolveFromAfterRHSShift exercises the dual-simplex repair path:
// moving a binding right-hand side out of its range keeps the old basis
// dual feasible but primal infeasible, which warm start must repair
// without a cold restart. In the small case c3 grows from 18 to 30: the
// old basis puts x past c1's 4, one float dual pivot repairs it, and the
// exact walk takes two (y, then x). The wide case does it on 80 rows, where an
// installed basis alone fills the eta file past reinvertEvery.
func TestSolveFromAfterRHSShift(t *testing.T) {
	small := func(cap int64) *Model {
		m := NewModel()
		x, y := m.Var("x"), m.Var("y")
		m.Objective(Maximize, Expr{{x, rat.FromInt(3)}, {y, rat.FromInt(5)}})
		m.Le("c1", Expr{{x, rat.FromInt(1)}}, rat.FromInt(4))
		m.Le("c2", Expr{{y, rat.FromInt(2)}}, rat.FromInt(12))
		m.Le("c3", Expr{{x, rat.FromInt(3)}, {y, rat.FromInt(2)}}, rat.FromInt(cap))
		return m
	}
	for _, tc := range []struct {
		name          string
		build         func(int64) *Model
		before, after int64
		dual          bool // the old basis goes primal infeasible
	}{
		{"small-degenerate", small, 18, 12, false},
		{"small", small, 18, 30, true},
		{"wide", wideRHSScaledModel, 4, 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first, err := tc.build(tc.before).Solve()
			if err != nil || first.Status != Optimal {
				t.Fatalf("cold: %v %v", first, err)
			}
			m := tc.build(tc.after)
			warm, err := m.SolveFrom(first.Basis())
			if err != nil || warm.Status != Optimal {
				t.Fatalf("warm: %v %v", warm, err)
			}
			if !warm.Info.WarmStarted {
				t.Fatalf("rhs shift fell back to cold")
			}
			if tc.dual && warm.Info.FloatPivots == 0 {
				t.Fatalf("rhs shift left the old basis optimal: no dual pivot exercised")
			}
			want, err := tc.build(tc.after).SolveOpts(&Options{exactWalk: true})
			if err != nil {
				t.Fatal(err)
			}
			if !warm.Objective.Equal(want.Objective) {
				t.Fatalf("warm obj %v != cold obj %v", warm.Objective, want.Objective)
			}
			if err := m.CheckFeasible(warm.Values()); err != nil {
				t.Fatalf("warm point infeasible: %v", err)
			}
			if warm.Info.FloatPivots >= want.Info.Pivots || warm.Info.Pivots != 0 {
				t.Fatalf("dual repair took %+v, the exact walk %d pivots — no win", warm.Info, want.Info.Pivots)
			}
		})
	}
}

// TestEmptyHintIsNotUnbounded: a hint of the right shape that names no
// column leaves every row to padding, and on an equality row the padding
// is an artificial — banned from entering, free to grow. A ray along
// which one grows is a ray of the relaxation that drops the row, not of
// the LP: the warm pass once reported it as Unbounded where the cold
// solve certifies an optimum. It must reject the hint instead.
func TestEmptyHintIsNotUnbounded(t *testing.T) {
	for _, exact := range []bool{true, false} {
		m := blockAngularSeededModel(1, 0)
		cold, err := m.SolveOpts(&Options{exactWalk: exact})
		if err != nil || cold.Status != Optimal {
			t.Fatalf("cold: %v %v", cold, err)
		}
		empty := &Basis{nVars: m.NumVars(), nCons: m.NumCons()}
		hinted, err := m.SolveOpts(&Options{WarmBasis: empty, exactWalk: exact})
		if err != nil {
			t.Fatal(err)
		}
		if hinted.Info.WarmStarted {
			t.Fatalf("exact walk %v: the empty hint was accepted: %+v", exact, hinted.Info)
		}
		sameSolution(t, m, hinted, cold)
	}
}

// FuzzWarmBasisHint feeds arbitrary hints (hintFromBytes) to
// Options.WarmBasis — the float walk from the hint and its certificate,
// and a float search or the exact walk after a refused hint — on three
// model families, each with its perturbed neighbour. Whatever the hint (wrong shape, duplicate or out-of-range
// entries, singular, stale, empty), the solve must not panic or fail,
// must reach the cold solve's status and objective, and an Optimal
// answer must pass the duality certificate: a bad hint costs a slower
// correct answer, never a different one. A nonzero stop then closes
// Options.Interrupt after that many pivots of the same solve — in the
// warm pass, or in whatever the solve went on to after turning the hint
// away — which must return that same solution or ErrInterrupted.
func FuzzWarmBasisHint(f *testing.F) {
	models := []*Model{
		blockAngularSeededModel(1, 0), blockAngularSeededModel(1, 1),
		wideSeededLEModel(2, 0), wideSeededLEModel(2, 1),
		randomSeededLEModel(11, 0), randomSeededLEModel(11, 1),
	}
	cold := make([]*Solution, len(models))
	for k, m := range models {
		var err error
		if cold[k], err = m.Solve(); err != nil || cold[k].Status != Optimal {
			f.Fatalf("model %d: cold %v %v", k, cold[k], err)
		}
		own := hintBytes(cold[k].Basis())
		for _, exact := range []bool{true, false} {
			f.Add(own, uint8(k), exact, uint8(0))   // its own basis
			f.Add(own, uint8(k^1), exact, uint8(1)) // its neighbour's
			f.Add([]byte{0}, uint8(k), exact, uint8(0))
			f.Add([]byte{0, 0, 0, 0, 0, 0, 0}, uint8(k), exact, uint8(5)) // var 0 twice
			f.Add([]byte{0, 2, 0xff, 0xff, 3, 0, 0}, uint8(k), exact, uint8(0))
			// On the block-angular family variable 0 is an s_e whose bound a
			// port row implies: the entry a basis encoded before implied
			// bounds lost their rows carries and this form has no column for.
			f.Add(hintBytes(impliedBoundHint(m, 0)), uint8(k), exact, uint8(2))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, sel uint8, exact bool, stop uint8) {
		k := int(sel) % len(models)
		m := models[k]
		opts := Options{WarmBasis: hintFromBytes(m, data), exactWalk: exact}
		sol, err := m.SolveOpts(&opts)
		if err != nil {
			t.Fatalf("model %d: hint %x broke the solve: %v", k, data, err)
		}
		if sol.Status != Optimal || !sol.Objective.Equal(cold[k].Objective) {
			t.Fatalf("model %d: hint %x: %v %v, cold solve is optimal at %v", k, data, sol.Status, sol.Objective, cold[k].Objective)
		}
		if err := m.CheckOptimal(sol.values, sol.duals); err != nil {
			t.Fatalf("model %d: hint %x: %v", k, data, err)
		}
		if stop > 0 {
			c := interruptCase{build: func() *Model { return m }, opts: opts}
			if err := c.cutShort(int(stop), sol); err != nil {
				t.Fatalf("model %d: hint %x: interrupted after %d pivots: %v", k, data, stop, err)
			}
		}
	})
}

// TestWarmWalkBudget: a hint's float walk runs under the repair budget.
// The link costs moved under the hint and five float pivots reoptimize
// it: with a budget of five the hint is accepted, with four it is
// refused, and the solve is then the unhinted solve, pivot for pivot.
func TestWarmWalkBudget(t *testing.T) {
	donor, err := blockAngularSeededModel(7, 0).Solve()
	if err != nil || donor.Status != Optimal {
		t.Fatalf("donor: %v %v", donor, err)
	}
	build := func() *Model { return blockAngularSeededModel(7, 3) }
	for budget, accepted := range map[int]bool{5: true, 4: false} {
		hinted, err := build().SolveOpts(&Options{WarmBasis: donor.Basis(), repairBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		if hinted.Info.WarmStarted != accepted {
			t.Fatalf("budget %d: %+v, want warm %v", budget, hinted.Info, accepted)
		}
		if accepted {
			continue
		}
		plain, err := build().SolveOpts(&Options{repairBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		sameSolution(t, build(), hinted, plain)
	}
}

// TestTwoPhaseForgetsAWarmWalk: the float search after a refused hint
// starts in the state a fresh engine starts in. A warm walk stopped
// right after a degenerate pivot leaves Bland's rule engaged, and the
// search must not let it choose its own first pivots: it walks the
// fresh engine's pivots to the fresh engine's basis.
func TestTwoPhaseForgetsAWarmWalk(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		s := wideSeededLEModel(seed, 0).standardize(nil)
		par := s.m.resolveParams(nil, len(s.rows), len(s.cols))
		fresh := newEngine[float64](floatKernel{}, s, par)
		want, err := fresh.twoPhase(nil)
		if err != nil {
			t.Fatal(err)
		}
		stale := newEngine[float64](floatKernel{}, s, par)
		stale.degen, stale.blandOn = par.blandAfter, true
		got, err := stale.twoPhase(nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || stale.info != fresh.info || !slices.Equal(stale.basis, fresh.basis) {
			t.Fatalf("seed %d: after a warm walk %v %+v, fresh %v %+v", seed, got, stale.info, want, fresh.info)
		}
	}
}
