package lp

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/pkg/steady/rat"
)

func TestWriteLPSmoke(t *testing.T) {
	m := NewModel()
	x := m.VarRange("alpha[P1]", ri(1))
	y := m.Var("s[P1->P2]")
	z := m.Var("free var")
	m.SetFree(z)
	m.Objective(Maximize, expr(term(x, 3), term(y, -2)))
	m.Le("cap", expr(term(x, 1), term(y, 1)), ri(4))
	m.Ge("lo", expr(term(y, 2)), ri(1))
	m.Eq("fix", expr(term(z, 1), term(x, 1)), ri(2))

	var buf bytes.Buffer
	if err := m.WriteLP(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Maximize", "Subject To", "Bounds", "End",
		"<= 4", ">= 1", "= 2",
		"free",
		"0 <= x0_alphaP1 <= 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("LP file missing %q:\n%s", want, out)
		}
	}
}

func TestWriteLPMinimizeAndEmptyObjective(t *testing.T) {
	m := NewModel()
	x := m.Var("x")
	m.Objective(Minimize, Expr{})
	m.Le("c", expr(term(x, 1)), ri(1))
	var buf bytes.Buffer
	if err := m.WriteLP(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Minimize") {
		t.Fatal("missing Minimize header")
	}
}

// randomMixedModel exercises GE and EQ rows too: feasibility is
// guaranteed by construction around a known point.
func randomMixedModel(rng *rand.Rand, nVars int) (*Model, []rat.Rat) {
	m := NewModel()
	point := make([]rat.Rat, nVars)
	vars := make([]Var, nVars)
	for i := range vars {
		point[i] = rr(int64(rng.Intn(5)), int64(1+rng.Intn(3)))
		vars[i] = m.VarRange("x", ri(8))
	}
	obj := Expr{}
	for _, v := range vars {
		obj = append(obj, Term{v, ri(int64(rng.Intn(7) - 3))})
	}
	m.Objective(Maximize, obj)
	for c := 0; c < nVars+2; c++ {
		e := Expr{}
		lhs := rat.Zero()
		for i, v := range vars {
			if rng.Intn(2) == 0 {
				continue
			}
			coef := rr(int64(rng.Intn(7)-3), int64(1+rng.Intn(2)))
			e = append(e, Term{v, coef})
			lhs = lhs.Add(coef.Mul(point[i]))
		}
		if len(e) == 0 {
			continue
		}
		switch rng.Intn(3) {
		case 0: // LE with slack above the point
			m.Le("r", e, lhs.Add(ri(int64(rng.Intn(4)))))
		case 1: // GE with slack below
			m.Ge("r", e, lhs.Sub(ri(int64(rng.Intn(4)))))
		default: // EQ through the point
			m.Eq("r", e, lhs)
		}
	}
	return m, point
}

func TestRandomMixedLPsSolveAndVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 60; trial++ {
		m, point := randomMixedModel(rng, 2+rng.Intn(5))
		if err := m.CheckFeasible(point); err != nil {
			t.Fatalf("trial %d: construction broken: %v", trial, err)
		}
		s, err := m.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if s.Status != Optimal {
			t.Fatalf("trial %d: status %v for a feasible bounded LP", trial, s.Status)
		}
		if err := m.CheckFeasible(s.Values()); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// The known feasible point cannot beat the optimum.
		if m.ObjectiveAt(point).Cmp(s.Objective) > 0 {
			t.Fatalf("trial %d: feasible point beats optimum", trial)
		}
		// The duals prove it, GE and EQ rows and range-bounded variables included.
		if err := m.CheckOptimal(s.values, mustDuals(t, m, s)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestMixedModelLPFileRoundTripSolvable(t *testing.T) {
	// Writing the LP file must not disturb the model.
	rng := rand.New(rand.NewSource(7))
	m, _ := randomMixedModel(rng, 4)
	var buf bytes.Buffer
	if err := m.WriteLP(&buf); err != nil {
		t.Fatal(err)
	}
	before := buf.Len()
	if before == 0 {
		t.Fatal("empty LP file")
	}
	if _, err := m.Solve(); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := m.WriteLP(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != before {
		t.Fatal("solving mutated the model's LP rendering")
	}
}
