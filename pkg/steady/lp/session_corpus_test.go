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
// certifies, at a point CheckOptimal accepts. The continuations' float
// pivots are logged beside the cold solves'.
func TestAddColumnMatchesColdSolve(t *testing.T) {
	continued, cold, fellBack, cases := 0, 0, 0, 0
	for _, c := range corpus.Served(testing.Short()) {
		if c.Problem != "masterslave" {
			continue
		}
		cases++
		m, err := core.MasterSlaveModel(c.Platform, 0, c.Model)
		if err != nil {
			t.Fatal(err)
		}
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
		// The session extends its model, which the cold solve then solves.
		for _, v := range []lp.Var{1, 2, lp.Var(m.NumVars() - 1)} {
			obj, entries := lp.ColumnOf(m, v)
			if _, err := x.AddColumn(obj.Mul(rat.FromInt(2)), entries); err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
		}
		if err := x.Optimize(); err != nil {
			t.Fatal(err)
		}
		sol, err := x.Certify()
		x.Close()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		ref, err := m.Solve() // m is the extended model now
		if err != nil {
			t.Fatalf("%s: cold: %v", c.Name, err)
		}
		if sol.Status != ref.Status || !sol.Objective.Equal(ref.Objective) {
			t.Fatalf("%s: %v at %v, a cold solve of the extended model %v at %v", c.Name, sol.Status, sol.Objective, ref.Status, ref.Objective)
		}
		y, err := m.Duals(sol)
		if err == nil {
			err = m.CheckOptimal(sol.Values(), y)
		}
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		continued += sol.Info.FloatPivots - first.Info.FloatPivots
		cold += ref.Info.FloatPivots
		fellBack += boolInt(sol.Info.CertifiedCold)
	}
	t.Logf("%d cases; float pivots after three columns %d (a cold solve of the extended model %d); continuations the exact walk answered: %d",
		cases, continued, cold, fellBack)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
