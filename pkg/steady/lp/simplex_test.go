package lp

import (
	"math/rand"
	"strings"
	"testing"

	"repro/pkg/steady/rat"
)

func ri(n int64) rat.Rat       { return rat.FromInt(n) }
func rr(n, d int64) rat.Rat    { return rat.New(n, d) }
func expr(ts ...Term) Expr     { return Expr(ts) }
func term(v Var, n int64) Term { return Term{v, ri(n)} }

// mustSolve solves and requires Optimal status, proven by the duality
// certificate.
func mustSolve(t *testing.T, m *Model) *Solution {
	t.Helper()
	s, err := m.Solve()
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	if err := m.CheckOptimal(s.values, mustDuals(t, m, s)); err != nil {
		t.Fatalf("optimal point not certified: %v", err)
	}
	return s
}

func TestSimpleMax(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  => 36 at (2,6).
	m := NewModel()
	x, y := m.Var("x"), m.Var("y")
	m.Objective(Maximize, expr(term(x, 3), term(y, 5)))
	m.Le("c1", expr(term(x, 1)), ri(4))
	m.Le("c2", expr(term(y, 2)), ri(12))
	m.Le("c3", expr(term(x, 3), term(y, 2)), ri(18))
	s := mustSolve(t, m)
	if !s.Objective.Equal(ri(36)) {
		t.Fatalf("objective = %v, want 36", s.Objective)
	}
	if !s.Value(x).Equal(ri(2)) || !s.Value(y).Equal(ri(6)) {
		t.Fatalf("point = (%v,%v), want (2,6)", s.Value(x), s.Value(y))
	}
}

func TestMinimizeWithGE(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 10, x >= 2  => optimum 20 at (10,0).
	m := NewModel()
	x, y := m.Var("x"), m.Var("y")
	m.Objective(Minimize, expr(term(x, 2), term(y, 3)))
	m.Ge("sum", expr(term(x, 1), term(y, 1)), ri(10))
	m.Ge("xmin", expr(term(x, 1)), ri(2))
	s := mustSolve(t, m)
	if !s.Objective.Equal(ri(20)) {
		t.Fatalf("objective = %v, want 20", s.Objective)
	}
}

func TestEquality(t *testing.T) {
	// max x + y s.t. x + y == 5, x <= 3 => 5.
	m := NewModel()
	x, y := m.Var("x"), m.Var("y")
	m.Objective(Maximize, expr(term(x, 1), term(y, 1)))
	m.Eq("fix", expr(term(x, 1), term(y, 1)), ri(5))
	m.Le("cap", expr(term(x, 1)), ri(3))
	s := mustSolve(t, m)
	if !s.Objective.Equal(ri(5)) {
		t.Fatalf("objective = %v, want 5", s.Objective)
	}
}

func TestInfeasible(t *testing.T) {
	m := NewModel()
	x := m.Var("x")
	m.Objective(Maximize, expr(term(x, 1)))
	m.Ge("lo", expr(term(x, 1)), ri(5))
	m.Le("hi", expr(term(x, 1)), ri(3))
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	m := NewModel()
	x := m.Var("x")
	m.Objective(Maximize, expr(term(x, 1)))
	m.Ge("lo", expr(term(x, 1)), ri(1))
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", s.Status)
	}
}

func TestUpperBoundsAsRows(t *testing.T) {
	m := NewModel()
	x := m.VarRange("x", rr(1, 2))
	y := m.VarRange("y", rr(3, 4))
	m.Objective(Maximize, expr(term(x, 1), term(y, 1)))
	s := mustSolve(t, m)
	if !s.Objective.Equal(rr(5, 4)) {
		t.Fatalf("objective = %v, want 5/4", s.Objective)
	}
}

func TestFreeVariable(t *testing.T) {
	// min x^2-like: min y s.t. y >= x - 3, y >= 3 - x with x free:
	// optimum y = 0 at x = 3.
	m := NewModel()
	x, y := m.Var("x"), m.Var("y")
	m.SetFree(x)
	m.Objective(Minimize, expr(term(y, 1)))
	m.Ge("a", expr(term(y, 1), term(x, -1)), ri(-3))
	m.Ge("b", expr(term(y, 1), term(x, 1)), ri(3))
	s := mustSolve(t, m)
	if !s.Objective.IsZero() {
		t.Fatalf("objective = %v, want 0", s.Objective)
	}
	if !s.Value(x).Equal(ri(3)) {
		t.Fatalf("x = %v, want 3", s.Value(x))
	}
}

func TestNegativeRHS(t *testing.T) {
	// max -x s.t. -x >= -4 (i.e. x <= 4), x >= 2 => -2.
	m := NewModel()
	x := m.Var("x")
	m.Objective(Maximize, expr(term(x, -1)))
	m.Ge("neg", expr(term(x, -1)), ri(-4))
	m.Ge("lo", expr(term(x, 1)), ri(2))
	s := mustSolve(t, m)
	if !s.Objective.Equal(ri(-2)) {
		t.Fatalf("objective = %v, want -2", s.Objective)
	}
}

func TestDegenerateKleeMintyish(t *testing.T) {
	// A degenerate LP that cycles under naive pivoting; Bland's rule
	// must terminate. (Beale's classic cycling example.)
	m := NewModel()
	x1, x2, x3, x4 := m.Var("x1"), m.Var("x2"), m.Var("x3"), m.Var("x4")
	m.Objective(Maximize, Expr{
		{x1, rr(3, 4)}, {x2, ri(-150)}, {x3, rr(1, 50)}, {x4, ri(-6)},
	})
	m.Le("r1", Expr{{x1, rr(1, 4)}, {x2, ri(-60)}, {x3, rr(-1, 25)}, {x4, ri(9)}}, ri(0))
	m.Le("r2", Expr{{x1, rr(1, 2)}, {x2, ri(-90)}, {x3, rr(-1, 50)}, {x4, ri(3)}}, ri(0))
	m.Le("r3", Expr{{x3, ri(1)}}, ri(1))
	s := mustSolve(t, m)
	if !s.Objective.Equal(rr(1, 20)) {
		t.Fatalf("objective = %v, want 1/20", s.Objective)
	}
}

func TestRedundantEqualities(t *testing.T) {
	// x + y == 2 duplicated; redundant row must be dropped in phase 1.
	m := NewModel()
	x, y := m.Var("x"), m.Var("y")
	m.Objective(Maximize, expr(term(x, 1)))
	m.Eq("e1", expr(term(x, 1), term(y, 1)), ri(2))
	m.Eq("e2", expr(term(x, 1), term(y, 1)), ri(2))
	m.Eq("e3", expr(term(x, 2), term(y, 2)), ri(4))
	s := mustSolve(t, m)
	if !s.Objective.Equal(ri(2)) {
		t.Fatalf("objective = %v, want 2", s.Objective)
	}
}

func TestExactRationalAnswer(t *testing.T) {
	// max x s.t. 3x <= 1 => exactly 1/3 (a float solver would give
	// 0.3333...; exactness is the point of this solver).
	m := NewModel()
	x := m.Var("x")
	m.Objective(Maximize, expr(term(x, 3)))
	m.Le("c", expr(term(x, 7)), rr(1, 3))
	s := mustSolve(t, m)
	if !s.Objective.Equal(rr(1, 7)) {
		t.Fatalf("objective = %v, want 1/7", s.Objective)
	}
	if !s.Value(x).Equal(rr(1, 21)) {
		t.Fatalf("x = %v, want 1/21", s.Value(x))
	}
}

// randomLEModel builds a random feasible bounded LP: max c.x subject
// to Ax <= b with b >= 0 (so x = 0 is feasible) plus a box to keep it
// bounded.
func randomLEModel(rng *rand.Rand, nVars, nCons int) *Model {
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
			if rng.Intn(2) == 0 {
				e = append(e, Term{v, rr(int64(rng.Intn(9)-4), int64(rng.Intn(3)+1))})
			}
		}
		if len(e) == 0 {
			continue
		}
		m.Le("r", e, ri(int64(rng.Intn(20))))
	}
	return m
}

func TestStrongDualityOnRandomLPs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		m := randomLEModel(rng, 2+rng.Intn(5), 1+rng.Intn(5))
		s, err := m.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if s.Status != Optimal {
			t.Fatalf("trial %d: status %v (x=0 should be feasible, box bounds)", trial, s.Status)
		}
		if err := m.CheckOptimal(s.values, mustDuals(t, m, s)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestRandomLPsExactVsFloat: the exact walk and the float-first search
// reach the same status, and each optimum is proven by its duals.
func TestRandomLPsExactVsFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		m := randomLEModel(rng, 2+rng.Intn(6), 1+rng.Intn(6))
		se, err := m.SolveOpts(&Options{exactWalk: true})
		if err != nil {
			t.Fatal(err)
		}
		sf, err := m.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if se.Status != sf.Status {
			t.Fatalf("trial %d: exact=%v float-first=%v", trial, se.Status, sf.Status)
		}
		if se.Status != Optimal {
			continue
		}
		for _, s := range []*Solution{se, sf} {
			if err := m.CheckOptimal(s.values, mustDuals(t, m, s)); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	}
}

func TestRandomOptimalityBySampling(t *testing.T) {
	// Property: no random feasible point beats the reported optimum.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		m := randomLEModel(rng, 3, 4)
		s, err := m.Solve()
		if err != nil || s.Status != Optimal {
			t.Fatalf("trial %d: %v %v", trial, err, s)
		}
		for probe := 0; probe < 200; probe++ {
			x := make([]rat.Rat, m.NumVars())
			for i := range x {
				x[i] = rr(int64(rng.Intn(16)), int64(rng.Intn(4)+1))
			}
			if m.CheckFeasible(x) != nil {
				continue
			}
			if m.ObjectiveAt(x).Cmp(s.Objective) > 0 {
				t.Fatalf("trial %d: sampled point beats optimum: %v > %v",
					trial, m.ObjectiveAt(x), s.Objective)
			}
		}
	}
}

// TestModelString: one printer (WriteLP), bounds included, and the same
// bytes on every call whatever order the objective map iterates in.
func TestModelString(t *testing.T) {
	m := NewModel()
	var obj Expr
	for i := 0; i < 12; i++ {
		obj = append(obj, term(m.VarRange("x", ri(int64(i+2))), int64(i+1)))
	}
	m.Objective(Maximize, obj)
	m.Le("cap", obj, ri(3))
	var buf strings.Builder
	if err := m.WriteLP(&buf); err != nil {
		t.Fatal(err)
	}
	got := m.String()
	if got != buf.String() || !strings.Contains(got, "0 <= x11_x <= 13") {
		t.Fatalf("String() is not the WriteLP rendering:\n%s", got)
	}
	for i := 0; i < 20; i++ {
		if again := m.String(); again != got {
			t.Fatalf("String() changed between calls:\n%s\nvs\n%s", got, again)
		}
	}
}

func TestObjCoefAccumulates(t *testing.T) {
	m := NewModel()
	x := m.Var("x")
	m.ObjCoef(x, ri(2))
	m.ObjCoef(x, ri(3))
	m.Le("cap", expr(term(x, 1)), ri(2))
	s := mustSolve(t, m)
	if !s.Objective.Equal(ri(10)) {
		t.Fatalf("objective = %v, want 10", s.Objective)
	}
}

func BenchmarkExactSimplexSmall(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := randomLEModel(rng, 8, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactSimplexMedium(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	m := randomLEModel(rng, 30, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}
