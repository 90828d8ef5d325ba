package lp

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

// explicitBounds is m with every upper bound spelled as a constraint
// x_v <= u_v after m's own, in variable order, and no bound left on any
// variable: standardize has nothing to imply, and the form it builds is
// the one m had when every bound got a row.
func explicitBounds(m *Model) *Model {
	tw := NewModel()
	for v, vr := range m.vars {
		tw.Var(vr.name)
		if vr.free {
			tw.SetFree(Var(v))
		}
	}
	tw.sense = m.sense
	tw.obj = slices.Clone(m.obj)
	for i, c := range m.cons {
		tw.Constrain(c.name, m.row(i), c.op, c.rhs)
	}
	for v, vr := range m.vars {
		if vr.hasUp {
			tw.Le("ub", Expr{{Var(v), ri(1)}}, vr.upper)
		}
	}
	return tw
}

// TestImpliedBoundUnitCases: which bounds of x <= 3 (and y <= 10) a
// single row lets standardize drop, case by case.
func TestImpliedBoundUnitCases(t *testing.T) {
	type model struct {
		m    *Model
		x, y Var
	}
	base := func() model {
		m := NewModel()
		x, y := m.VarRange("x", ri(3)), m.VarRange("y", ri(10))
		m.Objective(Maximize, Expr{{x, ri(1)}, {y, ri(1)}})
		return model{m, x, y}
	}
	for _, tc := range []struct {
		name         string
		row          func(model)
		dropX, dropY bool
	}{
		{"covering row", func(b model) { b.m.Le("r", Expr{{b.x, ri(2)}, {b.y, ri(1)}}, ri(6)) }, true, true},
		{"rhs/coef exactly u", func(b model) { b.m.Le("r", Expr{{b.x, ri(2)}}, ri(6)) }, true, false},
		{"rhs/coef above u by 2^-61", func(b model) { b.m.Le("r", Expr{{b.x, ri(2)}}, ri(6).Add(eps60)) }, false, false},
		{"zero rhs", func(b model) { b.m.Le("r", Expr{{b.x, ri(1)}, {b.y, ri(5)}}, ri(0)) }, true, true},
		{"negative coefficient", func(b model) { b.m.Le("r", Expr{{b.x, ri(2)}, {b.y, ri(-1)}}, ri(6)) }, false, false},
		{"free variable", func(b model) { b.m.SetFree(b.y); b.m.Le("r", Expr{{b.x, ri(2)}, {b.y, ri(1)}}, ri(6)) }, false, false},
		{"GE row", func(b model) { b.m.Ge("r", Expr{{b.x, ri(2)}, {b.y, ri(1)}}, ri(6)) }, false, false},
		{"EQ row", func(b model) { b.m.Eq("r", Expr{{b.x, ri(2)}, {b.y, ri(1)}}, ri(6)) }, false, false},
		{"negative rhs", func(b model) { b.m.Le("r", Expr{{b.x, ri(2)}, {b.y, ri(1)}}, ri(-1)) }, false, false},
		{"GE row that flips to LE", func(b model) { b.m.Ge("r", Expr{{b.x, ri(-2)}, {b.y, ri(-1)}}, ri(-6)) }, false, false},
		{"duplicates summing negative", func(b model) { b.m.Le("r", Expr{{b.x, ri(2)}, {b.y, ri(1)}, {b.y, ri(-3)}}, ri(6)) }, false, false},
		{"duplicates summing positive", func(b model) { b.m.Le("r", Expr{{b.x, ri(3)}, {b.y, ri(1)}, {b.x, ri(-1)}}, ri(6)) }, true, true},
		{"two rows, one each", func(b model) {
			b.m.Le("r", Expr{{b.x, ri(1)}, {b.y, ri(-1)}}, ri(1))
			b.m.Le("q", Expr{{b.y, ri(1)}}, ri(10))
		}, false, true},
	} {
		b := base()
		tc.row(b)
		has := BoundRows(b.m)
		if has[b.x] == tc.dropX || has[b.y] == tc.dropY {
			t.Errorf("%s: bound rows x %v y %v, want dropped x %v y %v", tc.name, has[b.x], has[b.y], tc.dropX, tc.dropY)
		}
		// Whatever was dropped, the answer is the one with every row.
		sameAsExplicit(t, tc.name, b.m)
	}
}

// sameAsExplicit solves m, whose implied bounds have no row, and its
// explicitBounds twin, where every bound has one, by the exact walk and
// float-first:
// same status, objective and values, each a certified optimum of its
// own model.
func sameAsExplicit(t *testing.T, name string, m *Model) {
	t.Helper()
	tw := explicitBounds(m)
	for _, exact := range []bool{true, false} {
		got, err := m.SolveOpts(&Options{exactWalk: exact})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := tw.SolveOpts(&Options{exactWalk: exact})
		if err != nil {
			t.Fatalf("%s: twin: %v", name, err)
		}
		if got.Status != want.Status {
			t.Fatalf("%s: status %v, %v with every bound a row", name, got.Status, want.Status)
		}
		if got.Status != Optimal {
			continue
		}
		if !got.Objective.Equal(want.Objective) || !slices.EqualFunc(got.values, want.values, rat.Rat.Equal) {
			t.Fatalf("%s: objective %v at %v, %v at %v with every bound a row", name, got.Objective, got.values, want.Objective, want.values)
		}
		if err := m.CheckOptimal(got.values, got.duals); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := tw.CheckOptimal(want.values, want.duals); err != nil {
			t.Fatalf("%s: twin: %v", name, err)
		}
	}
}

// TestImpliedBoundsSolveLikeExplicitRows: on the random LE, mixed and
// block-angular families under random upper bounds, leaving an implied
// bound without a row changes nothing a caller can see. The run must
// meet both kinds of bound, or it proves nothing.
func TestImpliedBoundsSolveLikeExplicitRows(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	dropped, kept := 0, 0
	check := func(name string, m *Model) {
		t.Helper()
		for v, has := range BoundRows(m) {
			switch {
			case has:
				kept++
			case m.vars[v].hasUp:
				dropped++
			}
		}
		sameAsExplicit(t, name, m)
	}
	rebound := func(m *Model, floor func(v int) rat.Rat) {
		for v := range m.vars {
			if m.vars[v].hasUp && rng.Intn(2) == 0 {
				m.SetUpper(Var(v), floor(v).Add(rr(int64(rng.Intn(12)), int64(1+rng.Intn(3)))))
			}
		}
	}
	zero := func(int) rat.Rat { return rat.Zero() }
	for trial := 0; trial < 60; trial++ {
		m := randomLEModel(rng, 2+rng.Intn(6), 1+rng.Intn(6))
		rebound(m, zero)
		check(fmt.Sprintf("LE %d", trial), m)

		m = seededLEModel(rng, 0, 6+rng.Intn(5), 4+rng.Intn(5), 2)
		rebound(m, zero)
		check(fmt.Sprintf("seeded LE %d", trial), m)

		m, point := randomMixedModel(rng, 2+rng.Intn(5))
		rebound(m, func(v int) rat.Rat { return point[v] })
		check(fmt.Sprintf("mixed %d", trial), m)
	}
	for seed := int64(0); seed < 12; seed++ {
		m := blockAngularSeededModel(seed, seed%3)
		check(fmt.Sprintf("block-angular %d", seed), m)
		for v := range m.vars {
			if m.vars[v].hasUp && rng.Intn(3) == 0 {
				m.SetUpper(Var(v), rr(int64(1+rng.Intn(3)), 2))
			}
		}
		check(fmt.Sprintf("block-angular %d, random bounds", seed), m)
	}
	if dropped < 100 || kept < 100 {
		t.Fatalf("%d bounds dropped and %d kept: the families no longer exercise both", dropped, kept)
	}
}

// masterSlaveModel is the §3.1 LP of p from master 0 under the
// bidirectional one-port model, variables and rows in internal/core's
// order (which this package cannot import): alpha_i <= 1 per computing
// node, s_e <= 1 per edge, both bounds as the paper prints them.
func masterSlaveModel(p *platform.Platform) (m *Model, s []Var) {
	m = NewModel()
	alpha := make(map[int]Var)
	obj := Expr{}
	for i := 0; i < p.NumNodes(); i++ {
		if p.CanCompute(i) {
			alpha[i] = m.VarRange("alpha", ri(1))
			obj = append(obj, Term{alpha[i], p.Weight(i).Val.Inv()})
		}
	}
	for e := 0; e < p.NumEdges(); e++ {
		s = append(s, m.VarRange("s", ri(1)))
	}
	m.Objective(Maximize, obj)
	over := func(edges []int, coef func(e int) rat.Rat) Expr {
		var ex Expr
		for _, e := range edges {
			ex = append(ex, Term{s[e], coef(e)})
		}
		return ex
	}
	unit := func(int) rat.Rat { return ri(1) }
	for i := 0; i < p.NumNodes(); i++ {
		if out := over(p.OutEdges(i), unit); len(out) > 0 {
			m.Le("send", out, ri(1))
		}
		if in := over(p.InEdges(i), unit); len(in) > 0 {
			m.Le("recv", in, ri(1))
		}
	}
	for _, e := range p.InEdges(0) {
		m.Eq("no-recv-master", Expr{{s[e], ri(1)}}, ri(0))
	}
	for i := 1; i < p.NumNodes(); i++ {
		ex := over(p.InEdges(i), func(e int) rat.Rat { return p.Edge(e).C.Inv() })
		if a, ok := alpha[i]; ok {
			ex = append(ex, Term{a, p.Weight(i).Val.Inv().Neg()})
		}
		ex = append(ex, over(p.OutEdges(i), func(e int) rat.Rat { return p.Edge(e).C.Inv().Neg() })...)
		m.Eq("conserve", ex, ri(0))
	}
	return m, s
}
