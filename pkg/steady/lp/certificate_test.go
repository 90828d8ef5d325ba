package lp

import (
	"slices"
	"strings"
	"testing"

	"repro/pkg/steady/rat"
)

// certModel is min 2x + 4y − z + f with f free and z <= 4, subject to
// x + y >= 10 and x − f == 2: optimum 24 at (10, 0, 4, 8), reached with
// the upper bound of z active and duals (3, −1) in the minimisation's
// own convention — every branch of CheckOptimal in one model.
func certModel() (m *Model, x, y []rat.Rat) {
	m = NewModel()
	vx, vy, vz, vf := m.Var("x"), m.Var("y"), m.VarRange("z", ri(4)), m.Var("f")
	m.SetFree(vf)
	m.Objective(Minimize, expr(term(vx, 2), term(vy, 4), term(vz, -1), term(vf, 1)))
	m.Ge("demand", expr(term(vx, 1), term(vy, 1)), ri(10))
	m.Eq("tie", expr(term(vx, 1), term(vf, -1)), ri(2))
	return m, []rat.Rat{ri(10), ri(0), ri(4), ri(8)}, []rat.Rat{ri(3), ri(-1)}
}

func TestCheckOptimalAcceptsSolverOutput(t *testing.T) {
	m, x, y := certModel()
	if err := m.CheckOptimal(x, y); err != nil {
		t.Fatalf("hand-derived optimum and duals refused: %v", err)
	}
	s := mustSolve(t, m) // asserts the certificate on the engine's own x, y
	if !s.Objective.Equal(ri(24)) || !slices.EqualFunc(s.duals, y, rat.Rat.Equal) {
		t.Fatalf("objective %v duals %v, want 24 and %v", s.Objective, s.duals, y)
	}
}

func TestCheckOptimalRefuses(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(m *Model, x, y []rat.Rat) ([]rat.Rat, []rat.Rat)
		want string
	}{
		{"feasible non-optimal x", func(_ *Model, x, y []rat.Rat) ([]rat.Rat, []rat.Rat) {
			x[1] = ri(1) // y = 1: still feasible, costs 4 more
			return x, y
		}, "differs from the dual bound"},
		{"infeasible x", func(_ *Model, x, y []rat.Rat) ([]rat.Rat, []rat.Rat) {
			x[2] = ri(5)
			return x, y
		}, "violates upper bound"},
		{"sign-flipped GE multiplier", func(_ *Model, x, y []rat.Rat) ([]rat.Rat, []rat.Rat) {
			y[0] = y[0].Neg()
			return x, y
		}, "wrong sign"},
		{"EQ multiplier dropped: free variable priced", func(_ *Model, x, y []rat.Rat) ([]rat.Rat, []rat.Rat) {
			y[0], y[1] = ri(2), ri(0)
			return x, y
		}, "free var f"},
		{"GE multiplier too large: unbounded variable priced", func(_ *Model, x, y []rat.Rat) ([]rat.Rat, []rat.Rat) {
			y[0] = ri(5)
			return x, y
		}, "no upper bound"},
		{"weak multipliers: a valid but slack dual bound", func(_ *Model, x, y []rat.Rat) ([]rat.Rat, []rat.Rat) {
			y[0] = ri(2)
			return x, y
		}, "differs from the dual bound"},
		{"short y", func(_ *Model, x, y []rat.Rat) ([]rat.Rat, []rat.Rat) {
			return x, y[:1]
		}, "1 multipliers"},
		{"upper bound lifted: the same point is no optimum", func(m *Model, x, y []rat.Rat) ([]rat.Rat, []rat.Rat) {
			m.SetUpper(2, ri(6)) // z may reach 6 now; x still has z = 4
			return x, y
		}, "differs from the dual bound"},
	} {
		m, x, y := certModel()
		x, y = tc.edit(m, x, y)
		err := m.CheckOptimal(x, y)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}

// TestCheckOptimalMaximizeSigns: the same rows under Maximize flip which
// multiplier signs are admissible.
func TestCheckOptimalMaximizeSigns(t *testing.T) {
	m := NewModel()
	x := m.Var("x")
	m.Objective(Maximize, expr(term(x, 1)))
	m.Le("cap", expr(term(x, 2)), ri(3))
	m.Ge("floor", expr(term(x, 1)), ri(1))
	pt := []rat.Rat{rr(3, 2)}
	if err := m.CheckOptimal(pt, []rat.Rat{rr(1, 2), ri(0)}); err != nil {
		t.Fatal(err)
	}
	// Pricing the GE row at 3/2 leaves d_x = −1/2 and a "bound" of 3/2,
	// the objective itself: the sign rule is all that refuses it.
	if err := m.CheckOptimal(pt, []rat.Rat{ri(0), rr(3, 2)}); err == nil || !strings.Contains(err.Error(), "wrong sign") {
		t.Fatalf("positive multiplier on a GE row of a maximisation accepted: %v", err)
	}
	if err := m.CheckOptimal(pt, []rat.Rat{rr(-1, 2), ri(0)}); err == nil {
		t.Fatal("negative multiplier on an LE row of a maximisation accepted")
	}
}
