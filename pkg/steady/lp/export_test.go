package lp

import (
	"fmt"
	"slices"
	"testing"

	"repro/pkg/steady/rat"
)

// standardized is m's form, outside the session pool.
func standardized(m *Model) *stdForm {
	s := new(stdForm)
	m.standardize(s, nil)
	return s
}

// mustDuals is m.Duals(sol), or the test's end.
func mustDuals(t testing.TB, m *Model, sol *Solution) []rat.Rat {
	t.Helper()
	y, err := m.Duals(sol)
	if err != nil {
		t.Fatal(err)
	}
	return y
}

// newEngine is an engine of its own, outside the pools.
func newEngine[T any](k kernel[T], s *stdForm, par params) *engine[T] {
	e := &engine[T]{k: k}
	e.reset(s, par)
	return e
}

// InstallNucleus installs sol's basis on m, the model it solved, over
// exact rationals, as the certificate does, and reports how many of its
// columns the install had to FTRAN out of how many it stored a factor
// for (every basic column that is not a +1 unit column). For tests
// outside the package, which can build the platform LPs of
// internal/core where this package cannot.
func InstallNucleus(m *Model, sol *Solution) (nucleus, factors int, ok bool) {
	s := standardized(m)
	e := newEngine[rat.Rat](ratKernel{}, s, m.resolveParams(nil, len(s.rows), len(s.cols)))
	if e.installBasis(sol.basis) != nil {
		return 0, 0, false
	}
	return e.peel.nucleus, len(e.etas), true
}

// SolveExactWalk solves m by the exact two-phase walk alone, the
// fallback forced: the reference of the parity tests outside the
// package.
func SolveExactWalk(m *Model) (*Solution, error) {
	return m.SolveOpts(&Options{exactWalk: true})
}

// SolveBland solves m float-first with every walk entering by pure
// Bland's rule, the reference the default rule is held to: how the
// external tests tell which fixtures have a long Bland walk.
func SolveBland(m *Model) (*Solution, error) {
	return m.SolveOpts(&Options{pricing: pricingBland})
}

// BoundRows reports which variables' upper bounds standardize gives a
// row: the ones no <=-row implies.
func BoundRows(m *Model) []bool {
	has := make([]bool, m.NumVars())
	for _, r := range standardized(m).rows {
		if r.conIdx < 0 {
			has[r.boundVar] = true
		}
	}
	return has
}

// NamersRun reports how many namers (Model.NameBy) have run so far, in
// every model of the process.
func NamersRun() int64 { return namersRun.Load() }

// EqualBases reports whether a and b, two solves of m, ended on one
// basis: the same basic columns, less the artificials, which pad the
// rows the others leave and say nothing of the vertex.
func EqualBases(m *Model, a, b *Solution) bool {
	s := standardized(m)
	structural := func(sol *Solution) []int {
		return slices.DeleteFunc(slices.Clone(sol.basis), func(j int) bool { return s.cols[j].kind == colArtificial })
	}
	return slices.Equal(structural(a), structural(b))
}

// BasisRoundTrip installs sol's basis on m's form and checks it, as
// the certificate of a solve does. The engine's final basis, listed by
// walking inB, must be the sorted clone of its basis list, and sol's.
func BasisRoundTrip(m *Model, sol *Solution) error {
	s := standardized(m)
	e := newEngine[rat.Rat](ratKernel{}, s, m.resolveParams(nil, len(s.rows), len(s.cols)))
	if why := e.checkBasis(sol.basis); why != "" {
		return fmt.Errorf("the solve's own basis is refused: %s", why)
	}
	got := basicColumns(e)
	want := slices.Sorted(slices.Values(e.basis))
	if !slices.Equal(got, want) || !slices.Equal(got, sol.basis) {
		return fmt.Errorf("listed over inB %v, sorted %v, solved %v", got, want, sol.basis)
	}
	return nil
}

// ColumnOf is v's objective coefficient and its entries in m's
// constraints: what Session.AddColumn takes to declare a twin of v.
func ColumnOf(m *Model, v Var) (rat.Rat, []Entry) { return columnOf(m, v) }
