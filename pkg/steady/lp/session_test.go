package lp

import (
	"testing"

	"repro/pkg/steady/rat"
)

// columnOf is v's objective coefficient and its entries in m's
// constraints, summed per constraint: what AddColumn takes to declare v
// again.
func columnOf(m *Model, v Var) (rat.Rat, []Entry) {
	var entries []Entry
	for i := range m.cons {
		sum := rat.Zero()
		for _, t := range m.row(i) {
			if t.Var == v {
				sum = sum.Add(t.Coef)
			}
		}
		if !sum.IsZero() {
			entries = append(entries, Entry{i, sum})
		}
	}
	return m.objCoef(v), entries
}

// withoutLast is m less its last k variables, their terms and their
// objective coefficients, and what AddColumn takes to put each back.
// The k must have neither a bound nor a free sign: a column is a
// non-negative variable.
func withoutLast(m *Model, k int) (*Model, [][]Entry, []rat.Rat) {
	keep := m.NumVars() - k
	w := NewModel()
	for v := range keep {
		w.vars = append(w.vars, m.vars[v])
	}
	var obj Expr
	for v := range keep {
		obj = append(obj, Term{Var(v), m.objCoef(Var(v))})
	}
	w.Objective(m.sense, obj)
	for i, c := range m.cons {
		var e Expr
		for _, t := range m.row(i) {
			if int(t.Var) < keep {
				e = append(e, t)
			}
		}
		w.Constrain(c.name, e, c.op, c.rhs)
	}
	var cols [][]Entry
	var objs []rat.Rat
	for v := keep; v < m.NumVars(); v++ {
		o, entries := columnOf(m, Var(v))
		cols, objs = append(cols, entries), append(objs, o)
	}
	return w, cols, objs
}

// unboundLast lifts the upper bound of m's last k variables, so that
// AddColumn can declare them, and returns m.
func unboundLast(m *Model, k int) *Model {
	for v := m.NumVars() - k; v < m.NumVars(); v++ {
		m.vars[v].hasUp, m.vars[v].upper = false, rat.Zero()
	}
	return m
}

// FuzzSessionMatchesCold: a model solved by the exact walk, and the same
// model begun without its last k columns, optimized and certified, then
// given them back by AddColumn and optimized and certified again, end on
// the same status and the same objective, and the session's point is an
// optimum of the model it extended (CheckOptimal, with Model.Duals).
// The last k variables lose their upper bounds first in both, as a
// column has none. An AddColumn that refuses a column — a negative entry
// on a row that stood for a bound of the model without it — ends the
// case: the model it would give is not the one solved cold. Run with
// `go test -fuzz FuzzSessionMatchesCold ./pkg/steady/lp`.
func FuzzSessionMatchesCold(f *testing.F) {
	f.Add(int64(0), int64(0), uint8(0), uint8(1))
	f.Add(int64(7), int64(3), uint8(0), uint8(4))
	f.Add(int64(9), int64(0), uint8(1), uint8(6)) // wide
	f.Add(int64(3), int64(2), uint8(1), uint8(20))
	f.Add(int64(2), int64(0), uint8(4), uint8(3)) // block-angular
	f.Add(int64(6), int64(4), uint8(4), uint8(9))
	f.Add(int64(4), int64(0), uint8(8), uint8(2)) // mixed: phase 1
	f.Add(int64(13), int64(5), uint8(8), uint8(5))
	f.Fuzz(func(t *testing.T, seed, perturb int64, shape, k uint8) {
		if perturb > 1<<30 || perturb < -(1<<30) {
			return // keep rationals small enough to solve fast
		}
		// shape bit 0: the 80-row family; bit 2: the block-angular family
		// instead (crash start); bit 3: the mixed GE/EQ family instead
		// (phase 1).
		model := randomSeededLEModel
		if shape&1 != 0 {
			model = wideSeededLEModel
		}
		if shape&4 != 0 {
			model = blockAngularSeededModel
		}
		if shape&8 != 0 {
			model = mixedSeededModel
		}
		n := min(int(k), model(seed, perturb).NumVars())
		build := func() *Model { return unboundLast(model(seed, perturb), n) }
		cold, err := build().SolveOpts(&Options{exactWalk: true})
		if err != nil {
			t.Skip() // budget-class errors affect both paths alike
		}

		w, cols, objs := withoutLast(build(), n)
		x, err := w.Begin(nil)
		if err != nil {
			t.Fatal(err)
		}
		defer x.Close()
		if err := x.Optimize(); err != nil {
			t.Fatal(err)
		}
		if _, err := x.Certify(); err != nil {
			t.Fatalf("seed %d/%d: the model without %d columns: %v", seed, perturb, n, err)
		}
		for i, entries := range cols {
			if _, err := x.AddColumn(objs[i], entries); err != nil {
				return
			}
		}
		if err := x.Optimize(); err != nil {
			t.Fatal(err)
		}
		sol, err := x.Certify()
		if err != nil {
			t.Fatalf("seed %d/%d: errored where the exact walk solved: %v", seed, perturb, err)
		}
		if sol.Status != cold.Status {
			t.Fatalf("seed %d/%d, %d columns added: status %v, cold %v", seed, perturb, n, sol.Status, cold.Status)
		}
		if sol.Status != Optimal {
			return
		}
		if !sol.Objective.Equal(cold.Objective) {
			t.Fatalf("seed %d/%d, %d columns added: objective %v, cold %v", seed, perturb, n, sol.Objective, cold.Objective)
		}
		if err := w.CheckOptimal(sol.values, mustDuals(t, w, sol)); err != nil {
			t.Fatalf("seed %d/%d, %d columns added: not a certified optimum: %v", seed, perturb, n, err)
		}
	})
}

// TestSessionBan: a variable banned after an optimum stays at 0. Banned
// where the optimum leaves it nonbasic at 0, the next search and the
// certificate keep the objective; banned where it is basic at a nonzero
// value, the session certifies the optimum of the model with that
// variable's upper bound set to 0, which the exact walk solves cold.
func TestSessionBan(t *testing.T) {
	tried := [2]int{}
	for seed := int64(0); seed < 40; seed++ {
		m := randomSeededLEModel(seed, 0)
		first, err := m.Solve()
		if err != nil || first.Status != Optimal {
			continue
		}
		for v := range m.NumVars() {
			positive := first.values[v].Sign() > 0
			x, err := randomSeededLEModel(seed, 0).Begin(nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := x.Optimize(); err != nil {
				t.Fatal(err)
			}
			x.Ban(Var(v))
			if err := x.Optimize(); err != nil {
				t.Fatal(err)
			}
			sol, err := x.Certify()
			x.Close()
			if err != nil {
				t.Fatal(err)
			}
			fixed := randomSeededLEModel(seed, 0)
			fixed.SetUpper(Var(v), rat.Zero())
			want, err := fixed.SolveOpts(&Options{exactWalk: true})
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case sol.Status != want.Status || !sol.Objective.Equal(want.Objective):
				t.Fatalf("seed %d, var %d banned: %v at %v, want %v at %v", seed, v, sol.Status, sol.Objective, want.Status, want.Objective)
			case !sol.values[v].IsZero():
				t.Fatalf("seed %d, var %d banned: value %v", seed, v, sol.values[v])
			case !positive && !sol.Objective.Equal(first.Objective):
				t.Fatalf("seed %d, var %d banned at 0: objective %v, was %v", seed, v, sol.Objective, first.Objective)
			}
			tried[boolInt(positive)]++
		}
	}
	if tried[0] == 0 || tried[1] == 0 {
		t.Fatalf("banned %d variables at 0 and %d positive: both must happen", tried[0], tried[1])
	}
}
