package lp

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/pkg/steady/platform"
)

// certifiedLike solves m by the exact walk and float-first and holds
// both to the certificate and to each other's objective; it returns the
// exact walk's solution.
func certifiedLike(t *testing.T, name string, m *Model) *Solution {
	t.Helper()
	var sols [2]*Solution
	for i, opts := range []*Options{{exactWalk: true}, nil} {
		sol, err := m.SolveOpts(opts)
		if err != nil || sol.Status != Optimal {
			t.Fatalf("%s, options %+v: %v %v", name, opts, sol, err)
		}
		if err := m.CheckOptimal(sol.values, sol.duals); err != nil {
			t.Fatalf("%s, options %+v: not a certified optimum: %v", name, opts, err)
		}
		sols[i] = sol
	}
	cold, ff := sols[0], sols[1]
	if !ff.Objective.Equal(cold.Objective) {
		t.Fatalf("%s: objective cold %v, float-first %v", name, cold.Objective, ff.Objective)
	}
	if ff.Info.CertifiedCold || ff.Info.RepairPivots != 0 {
		t.Fatalf("%s: the float walk did not end on the exact optimum: %+v", name, ff.Info)
	}
	return cold
}

// TestCrashStart: an LP whose GE and EQ rows all have right-hand side 0
// — the paper's, mirrored here at n = 8 / 24 / 48 by the §3.1
// master-slave and §3.3 broadcast builders — starts phase 2 from the
// crash basis and takes no phase-1 pivot, cold or float-first, and ends
// on a certified optimum. One nonzero right-hand side on an EQ or a GE
// row sends the solve through phase 1 as before. The registered
// problems' own builders are held to the same in internal/core
// (TestRegisteredLPsCrashStart).
func TestCrashStart(t *testing.T) {
	for _, n := range []int{8, 24, 48} {
		p := platform.RandomConnected(rand.New(rand.NewSource(int64(n))), n, n, 5, 5, 0.15)
		ms, _ := masterSlaveModel(p)
		for name, m := range map[string]*Model{"masterslave": ms, "broadcast": broadcastBoundModel(p, 0)} {
			name = fmt.Sprintf("%s n=%d", name, n)
			if !m.standardize(nil).homogeneous {
				t.Fatalf("%s: form not homogeneous", name)
			}
			if cold := certifiedLike(t, name, m); cold.Info.Phase1Pivots != 0 {
				t.Fatalf("%s: %d phase-1 pivots from a crash start", name, cold.Info.Phase1Pivots)
			}
		}
	}

	// x + y <= 4 and z <= 3 with one row that keeps the origin out.
	for _, op := range []Op{EQ, GE} {
		m := NewModel()
		x, y, z := m.Var("x"), m.Var("y"), m.Var("z")
		m.Objective(Maximize, expr(term(x, 2), term(y, 1), term(z, 1)))
		m.Le("cap", expr(term(x, 1), term(y, 1)), ri(4))
		m.Le("zcap", expr(term(z, 1)), ri(3))
		m.Eq("flow", expr(term(x, 1), term(y, -1), term(z, -1)), ri(0))
		switch op {
		case EQ:
			m.Eq("need", expr(term(y, 1), term(z, 1)), ri(2))
		case GE:
			m.Ge("need", expr(term(y, 1), term(z, 1)), ri(3))
		}
		name := fmt.Sprintf("nonzero %v row", op)
		if m.standardize(nil).homogeneous {
			t.Fatalf("%s: form counted homogeneous", name)
		}
		if cold := certifiedLike(t, name, m); cold.Info.Phase1Pivots == 0 {
			t.Fatalf("%s: no phase-1 pivot, but the origin is infeasible: %+v", name, cold.Info)
		}
	}
}

// TestZeroArtificialStaysZero: x and y both touch both equality rows,
// so the crash places neither and both artificials stay basic at 0. x
// enters first with -1 on those rows and +1 on x <= 4 alone: were the
// ratio test to read only w_i > 0, x would rise to 4 along the cap row
// and carry the artificials with it, and the "optimum" x = 4, y = 0
// would break both equalities at the right objective. An artificial
// basic at 0 must leave instead, so x and y rise together.
func TestZeroArtificialStaysZero(t *testing.T) {
	m := NewModel()
	x, y := m.Var("x"), m.Var("y")
	m.Objective(Maximize, expr(term(x, 1)))
	m.Eq("a", expr(term(x, -1), term(y, 1)), ri(0))
	m.Eq("b", expr(term(x, -2), term(y, 2)), ri(0))
	m.Le("cap", expr(term(x, 1)), ri(4))
	cold := certifiedLike(t, "two shared equality rows", m)
	if cold.Info.Phase1Pivots != 0 {
		t.Fatalf("phase 1 ran on a homogeneous form: %+v", cold.Info)
	}
	if !cold.Value(x).Equal(ri(4)) || !cold.Value(y).Equal(ri(4)) {
		t.Fatalf("x, y = %v, %v, want 4, 4", cold.Value(x), cold.Value(y))
	}
}
