package lp

import (
	"errors"
	"testing"
)

// bealeModel is Beale's classic cycling LP: under Dantzig pricing
// with the textbook tie-breaks the simplex revisits its starting
// basis forever; Bland's rule (or the automatic fallback) terminates
// at the optimum 1/20.
func bealeModel() *Model {
	m := NewModel()
	x1, x2, x3, x4 := m.Var("x1"), m.Var("x2"), m.Var("x3"), m.Var("x4")
	m.Objective(Maximize, Expr{
		{x1, rr(3, 4)}, {x2, ri(-150)}, {x3, rr(1, 50)}, {x4, ri(-6)},
	})
	m.Le("r1", Expr{{x1, rr(1, 4)}, {x2, ri(-60)}, {x3, rr(-1, 25)}, {x4, ri(9)}}, ri(0))
	m.Le("r2", Expr{{x1, rr(1, 2)}, {x2, ri(-90)}, {x3, rr(-1, 50)}, {x4, ri(3)}}, ri(0))
	m.Le("r3", Expr{{x3, ri(1)}}, ri(1))
	return m
}

// TestBlandFallbackOnDegenerateLP is the regression test for the
// configurable pricing rule: on Beale's degenerate LP, Dantzig
// pricing with the fallback disabled cycles into the pivot budget,
// while the default fallback hands the same solve to Bland's rule
// after the degeneracy stall and reaches the exact optimum. The exact
// walk is the subject: TestFloatFirstBealeCycling holds the float
// search to it.
func TestBlandFallbackOnDegenerateLP(t *testing.T) {
	// Fallback disabled: the cycle burns the whole (tightened) budget.
	_, err := bealeModel().SolveOpts(&Options{
		pricing:     pricingDantzig,
		blandAfter:  -1,
		pivotBudget: 1000,
		exactWalk:   true,
	})
	if !errors.Is(err, ErrIterationLimit) {
		t.Fatalf("Dantzig without fallback: got err=%v, want ErrIterationLimit (the LP cycles)", err)
	}

	// Default fallback: same pricing, solve succeeds.
	s, err := bealeModel().SolveOpts(&Options{pricing: pricingDantzig, exactWalk: true})
	if err != nil {
		t.Fatalf("Dantzig with fallback: %v", err)
	}
	if s.Status != Optimal || !s.Objective.Equal(rr(1, 20)) {
		t.Fatalf("status %v objective %v, want optimal 1/20", s.Status, s.Objective)
	}
	if s.Info.BlandPivots == 0 {
		t.Fatalf("fallback never engaged (BlandPivots = 0) — the degeneracy stall was not detected")
	}
	if s.Info.Pivots > defaultPivotFactor {
		t.Fatalf("took %d pivots on a 3-row LP", s.Info.Pivots)
	}
}

// TestPivotBudgetConfigurable checks that Options.pivotBudget
// replaces the historical hard-coded budget.
func TestPivotBudgetConfigurable(t *testing.T) {
	build := func() *Model {
		m := NewModel()
		x, y := m.Var("x"), m.Var("y")
		m.Objective(Maximize, expr(term(x, 3), term(y, 5)))
		m.Le("c1", expr(term(x, 1)), ri(4))
		m.Le("c2", expr(term(y, 2)), ri(12))
		m.Le("c3", expr(term(x, 3), term(y, 2)), ri(18))
		return m
	}
	if _, err := build().SolveOpts(&Options{pivotBudget: 1}); !errors.Is(err, ErrIterationLimit) {
		t.Fatalf("budget 1: got err=%v, want ErrIterationLimit", err)
	}
	s, err := build().SolveOpts(&Options{pivotBudget: 100})
	if err != nil || s.Status != Optimal || !s.Objective.Equal(ri(36)) {
		t.Fatalf("budget 100: got %v/%v, want optimal 36", s, err)
	}
}

// TestPricingRulesAgreeOnObjective: both pricing rules must reach the
// same optimal value (the vertex may differ when the optimum is not
// unique, the objective never does).
func TestPricingRulesAgreeOnObjective(t *testing.T) {
	for trial := int64(0); trial < 20; trial++ {
		m1 := randomSeededLEModel(trial, 0)
		m2 := randomSeededLEModel(trial, 0)
		b, err := m1.SolveOpts(&Options{pricing: pricingBland})
		if err != nil {
			t.Fatal(err)
		}
		d, err := m2.SolveOpts(&Options{pricing: pricingDantzig})
		if err != nil {
			t.Fatal(err)
		}
		if b.Status != d.Status {
			t.Fatalf("trial %d: bland %v vs dantzig %v", trial, b.Status, d.Status)
		}
		if b.Status == Optimal && !b.Objective.Equal(d.Objective) {
			t.Fatalf("trial %d: bland obj %v != dantzig obj %v", trial, b.Objective, d.Objective)
		}
	}
}
