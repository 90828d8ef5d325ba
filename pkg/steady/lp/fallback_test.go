package lp

import (
	"testing"

	"repro/pkg/steady/obs"
)

// TestExactFallbackReasons: a cold solve that leaves its float basis for
// the exact walk counts once under its reason, and the reasons add up
// to steady_lp_fallbacks_total{kind="exact"}. An Infeasible or
// Unbounded search is search_status; a repair that needs two pivots
// under a budget of one is repair_budget; a certified search counts
// nothing. No model the fixtures build makes float64 accept a basis the
// exact install finds singular, so singular_install is checked on the
// certificate's own stage, solveFromBasis, with a basis that takes one
// row twice.
func TestExactFallbackReasons(t *testing.T) {
	one := func(op Op, rhs int64) func() *Model {
		return func() *Model {
			m := NewModel()
			x := m.Var("x")
			m.Objective(Maximize, Expr{{x, ri(1)}})
			m.Constrain("lo", Expr{{x, ri(1)}}, op, ri(rhs))
			return m
		}
	}
	for _, tc := range []struct {
		name  string
		build func() *Model
		opts  Options
		want  string // "" when the float basis is certified
	}{
		{"infeasible", one(LE, -1), Options{}, fallbackSearchStatus},
		{"unbounded", one(GE, 1), Options{}, fallbackSearchStatus},
		{"repair-budget", objectiveGapsModel, Options{repairBudget: 1}, fallbackRepairBudget},
		{"certified", objectiveGapsModel, Options{}, ""},
	} {
		reg := obs.New()
		opts := tc.opts
		opts.Obs = reg
		if _, err := tc.build().SolveOpts(&opts); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		reasons := reg.CounterVec(metricFallbackWhy, helpFallbackWhy, "reason")
		var total int64
		for _, why := range []string{fallbackSearchStatus, fallbackSingularInstall, fallbackRepairBudget, fallbackRepairRefused} {
			n := reasons.With(why).Value()
			total += n
			if want := int64(0); why == tc.want {
				want = 1
				if n != want {
					t.Errorf("%s: %s counted %d, want 1", tc.name, why, n)
				}
			} else if n != want {
				t.Errorf("%s: %s counted %d, want 0", tc.name, why, n)
			}
		}
		exact := reg.CounterVec(metricFallbacks, "LP fallbacks by kind.", "kind").With("exact").Value()
		if total != exact {
			t.Errorf("%s: reasons add up to %d, kind=\"exact\" is %d", tc.name, total, exact)
		}
	}

	m := NewModel()
	x, y := m.Var("x"), m.Var("y")
	m.Objective(Maximize, Expr{{x, ri(1)}, {y, ri(1)}})
	m.Le("cx", Expr{{x, ri(2)}}, ri(4))
	m.Le("cy", Expr{{y, ri(1)}}, ri(3))
	s := m.standardize(nil)
	colIdx := []int{0, 2} // x, and the slack of cx
	if sol, why := solveFromBasis(s, colIdx, s.m.resolveParams(nil, len(s.rows), len(s.cols))); sol != nil || why != fallbackSingularInstall {
		t.Fatalf("a basis taking row cx twice: %v, %q; want nil, %q", sol, why, fallbackSingularInstall)
	}
}
