package lp_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/pkg/steady/lp"
	"repro/pkg/steady/rat"
)

// TestAddColumnMatchesColdSolve: on the corpus's master-slave cases, a
// session that has certified the LP's optimum takes three columns —
// twins of variables 1, 2 and the last: the same entries, twice the
// objective coefficient, and no upper bound — walks on from its basis and
// certifies the objective a cold solve of the model it extended
// certifies, at a point CheckOptimal accepts. A second session replaces
// the objective (each coefficient of variable v weighted 1 + v mod 3),
// walks on and certifies what a cold solve of the re-weighted model
// does. The continuations' float pivots are logged beside the cold
// solves'.
func TestAddColumnMatchesColdSolve(t *testing.T) {
	continued, cold, fellBack, cases := [2]int{}, [2]int{}, [2]int{}, 0
	for _, c := range corpus.Served(testing.Short()) {
		if c.Problem != "masterslave" {
			continue
		}
		cases++
		build := func() *lp.Model {
			m, err := core.MasterSlaveModel(c.Platform, 0, c.Model)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		// extend and reweight are the two edits; the session makes them
		// to its model, which the cold solve then solves.
		extend := func(m *lp.Model, add func(rat.Rat, []lp.Entry)) {
			for _, v := range []lp.Var{1, 2, lp.Var(m.NumVars() - 1)} {
				obj, entries := lp.ColumnOf(m, v)
				add(obj.Mul(rat.FromInt(2)), entries)
			}
		}
		reweight := func(m *lp.Model) lp.Expr {
			var e lp.Expr
			for v := range m.NumVars() {
				obj, _ := lp.ColumnOf(m, lp.Var(v))
				e = append(e, lp.Term{Var: lp.Var(v), Coef: obj.Mul(rat.FromInt(int64(1 + v%3)))})
			}
			return e
		}
		for edit := range 2 {
			m := build()
			x, err := m.Begin(nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := x.Optimize(); err != nil {
				t.Fatal(err)
			}
			first, err := x.Certify()
			if err != nil || first.Status != lp.Optimal {
				t.Fatalf("%s: %v %v", c.Name, first, err)
			}
			if edit == 0 {
				extend(m, func(obj rat.Rat, entries []lp.Entry) {
					if _, err := x.AddColumn(obj, entries); err != nil {
						t.Fatalf("%s: %v", c.Name, err)
					}
				})
			} else {
				x.SetObjective(reweight(m))
			}
			if err := x.Optimize(); err != nil {
				t.Fatal(err)
			}
			sol, err := x.Certify()
			x.Close()
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			ref, err := m.Solve() // m is the edited model now
			if err != nil {
				t.Fatalf("%s: cold: %v", c.Name, err)
			}
			if sol.Status != ref.Status || !sol.Objective.Equal(ref.Objective) {
				t.Fatalf("%s, edit %d: %v at %v, a cold solve of the edited model %v at %v", c.Name, edit, sol.Status, sol.Objective, ref.Status, ref.Objective)
			}
			y, err := m.Duals(sol)
			if err == nil {
				err = m.CheckOptimal(sol.Values(), y)
			}
			if err != nil {
				t.Fatalf("%s, edit %d: %v", c.Name, edit, err)
			}
			continued[edit] += sol.Info.FloatPivots - first.Info.FloatPivots
			cold[edit] += ref.Info.FloatPivots
			fellBack[edit] += boolInt(sol.Info.CertifiedCold)
		}
	}
	t.Logf("%d cases; float pivots after three columns %d (a cold solve of the extended model %d), after a new objective %d (cold %d); continuations the exact walk answered: %d and %d",
		cases, continued[0], cold[0], continued[1], cold[1], fellBack[0], fellBack[1])
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
