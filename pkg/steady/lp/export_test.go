package lp

import (
	"fmt"
	"slices"

	"repro/pkg/steady/rat"
)

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
	s := m.standardize(nil)
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
	for _, r := range m.standardize(nil).rows {
		if r.conIdx < 0 {
			has[r.boundVar] = true
		}
	}
	return has
}

// NamersRun reports how many namers (Model.NameBy) have run so far, in
// every model of the process.
func NamersRun() int64 { return namersRun.Load() }

// EqualBases reports whether a and b ended on one basis: the same
// basic columns.
func EqualBases(a, b *Solution) bool { return slices.Equal(a.basis, b.basis) }

// BasisRoundTrip installs sol's basis on m's form and reoptimizes, as
// the certificate of a solve does. The engine's final basis, listed by
// walking inB, must be the sorted clone of its basis list less the
// artificials, and sol's.
func BasisRoundTrip(m *Model, sol *Solution) error {
	s := m.standardize(nil)
	e := newEngine[rat.Rat](ratKernel{}, s, m.resolveParams(nil, len(s.rows), len(s.cols)))
	if _, why := e.reoptimize(sol.basis); why != "" {
		return fmt.Errorf("the solve's own basis does not reoptimize")
	}
	got := basicColumns(e)
	want := slices.DeleteFunc(slices.Clone(e.basis), func(j int) bool { return s.cols[j].kind == colArtificial })
	slices.Sort(want)
	if !slices.Equal(got, want) || !slices.Equal(got, sol.basis) {
		return fmt.Errorf("listed over inB %v, sorted %v, solved %v", got, want, sol.basis)
	}
	return nil
}
