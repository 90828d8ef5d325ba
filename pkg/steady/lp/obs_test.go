package lp

import (
	"testing"

	"repro/pkg/steady/obs"
)

// obsTestModel is the TestSimpleMax program: max 3x+5y subject to
// x<=4, 2y<=12, 3x+2y<=18 (optimum 36 at (2,6)).
func obsTestModel() *Model {
	m := NewModel()
	x, y := m.Var("x"), m.Var("y")
	m.Objective(Maximize, expr(term(x, 3), term(y, 5)))
	m.Le("c1", expr(term(x, 1)), ri(4))
	m.Le("c2", expr(term(y, 2)), ri(12))
	m.Le("c3", expr(term(x, 3), term(y, 2)), ri(18))
	return m
}

func TestSolveFlushesMetrics(t *testing.T) {
	reg := obs.New()
	m := obsTestModel()
	sol, err := m.SolveOpts(&Options{Obs: reg, exactWalk: true})
	if err != nil || sol.Status != Optimal {
		t.Fatalf("solve: %v (status %v)", err, sol.Status)
	}
	if got := reg.Counter(metricPivots, "").Value(); got != int64(sol.Info.Pivots) {
		t.Fatalf("pivots counter = %d, want %d", got, sol.Info.Pivots)
	}
	if got := reg.CounterVec(metricSolves, "", "path").With("cold").Value(); got != 1 {
		t.Fatalf("cold solves counter = %d, want 1", got)
	}
	spans := reg.RecentSpans()
	var sawSolve, sawPhase2 bool
	for _, sp := range spans {
		switch sp.Stage {
		case "lp_solve":
			sawSolve = true
		case "lp_phase2":
			sawPhase2 = true
		}
	}
	if !sawSolve || !sawPhase2 {
		t.Fatalf("spans missing lifecycle stages: %+v", spans)
	}

	// A float search lands on the float path and, like every solve of
	// this model, records the same exact objective.
	fsol, err := obsTestModel().SolveOpts(&Options{Obs: reg})
	if err != nil || fsol.Status != Optimal {
		t.Fatalf("float solve: %v (status %v)", err, fsol.Status)
	}
	if !fsol.Objective.Equal(sol.Objective) {
		t.Fatalf("float-first objective = %v, want %v", fsol.Objective, sol.Objective)
	}
	wantPath := "float"
	if fsol.Info.CertifiedCold {
		wantPath = "cold"
	}
	if got := reg.CounterVec(metricSolves, "", "path").With(wantPath).Value(); got < 1 {
		t.Fatalf("%s solves counter = %d, want >= 1", wantPath, got)
	}
}

// TestSolvePathWithoutPivots: a float search that needs no pivot still
// searched and still certified, so its solve is counted on the float
// path, like any other whose basis the certificate accepted. Maximizing
// -x under x <= 1 is optimal at the starting basis.
func TestSolvePathWithoutPivots(t *testing.T) {
	reg := obs.New()
	m := NewModel()
	x := m.Var("x")
	m.Objective(Maximize, expr(term(x, -1)))
	m.Le("cap", expr(term(x, 1)), ri(1))
	sol, err := m.SolveOpts(&Options{Obs: reg})
	if err != nil || sol.Status != Optimal {
		t.Fatalf("solve: %v (status %v)", err, sol.Status)
	}
	if sol.Info.FloatPivots != 0 || sol.Info.CertifiedCold {
		t.Fatalf("not a pivotless certified search: %+v", sol.Info)
	}
	stages := map[string]bool{}
	for _, sp := range reg.RecentSpans() {
		stages[sp.Stage] = true
	}
	if !stages["lp_float_search"] || !stages["lp_certify"] {
		t.Fatalf("spans %v: want lp_float_search and lp_certify", stages)
	}
	paths := reg.CounterVec(metricSolves, "", "path")
	for path, want := range map[string]int64{"float": 1, "cold": 0} {
		if got := paths.With(path).Value(); got != want {
			t.Fatalf("solves counter path=%q = %d, want %d", path, got, want)
		}
	}
}

// TestMetricsDoNotPerturbSolve proves observation is one-way: the
// same model solved with and without a registry returns identical
// pivots, basis, and values.
func TestMetricsDoNotPerturbSolve(t *testing.T) {
	plain, err := obsTestModel().Solve()
	if err != nil {
		t.Fatal(err)
	}
	observed, err := obsTestModel().SolveOpts(&Options{Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Info != observed.Info {
		t.Fatalf("SolveInfo diverged: %+v vs %+v", plain.Info, observed.Info)
	}
	if !plain.Objective.Equal(observed.Objective) {
		t.Fatalf("objective diverged: %v vs %v", plain.Objective, observed.Objective)
	}
}

func TestRefactorizationsCounted(t *testing.T) {
	// The certificate installs the float search's basis, which refactors
	// at least once.
	reg := obs.New()
	sol, err := obsTestModel().SolveOpts(&Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Info.CertifiedCold {
		t.Fatalf("the float basis was not certified: %+v", sol.Info)
	}
	if sol.Info.Refactorizations < 1 {
		t.Fatalf("Refactorizations = %d, want >= 1", sol.Info.Refactorizations)
	}
	if got := reg.Counter(metricRefactor, "").Value(); got != int64(sol.Info.Refactorizations) {
		t.Fatalf("refactorizations counter = %d, want %d", got, sol.Info.Refactorizations)
	}
}
