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

// InstallNucleus installs b on m over exact rationals, as a warm start
// would, and reports how many of its columns the install had to FTRAN
// out of how many it stored a factor for (every basic column that is
// not a +1 unit column). For tests outside the package, which can build
// the platform LPs of internal/core where this package cannot.
func InstallNucleus(m *Model, b *Basis) (nucleus, factors int, ok bool) {
	s := m.standardize(nil)
	colIdx, ok := mapBasis(s, b, nil)
	if !ok {
		return 0, 0, false
	}
	e := newEngine[rat.Rat](ratKernel{}, s, m.resolveParams(nil, len(s.rows), len(s.cols)))
	if e.installBasis(colIdx) != nil {
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

// BasisRoundTrip installs b, a solve's basis, on m's form and
// reoptimizes, as the certificate of a solve does. The engine's final
// basis, encoded by walking inB, must be the clone-and-sort encoding of
// its basis list, and b; and it must map back to the same columns.
func BasisRoundTrip(m *Model, b *Basis) error {
	s := m.standardize(nil)
	colIdx, ok := mapBasis(s, b, nil)
	if !ok {
		return fmt.Errorf("the solve's own basis does not map")
	}
	e := newEngine[rat.Rat](ratKernel{}, s, m.resolveParams(nil, len(s.rows), len(s.cols)))
	if _, why := e.reoptimize(colIdx); why != "" {
		return fmt.Errorf("the solve's own basis does not reoptimize")
	}
	got, want := encodeBasis(s, e.inB, len(e.basis)), encodeSorted(s, e.basis)
	if !slices.Equal(got.entries, want.entries) || !slices.Equal(got.entries, b.entries) {
		return fmt.Errorf("encoded over inB %v, sorted %v, solved %v", got.entries, want.entries, b.entries)
	}
	back, ok := mapBasis(s, got, nil)
	basic := slices.DeleteFunc(slices.Clone(e.basis), func(j int) bool { return s.cols[j].kind == colArtificial })
	slices.Sort(back)
	slices.Sort(basic)
	if !ok || !slices.Equal(back, basic) {
		return fmt.Errorf("maps back to %v (%v), the engine's basis is %v", back, ok, basic)
	}
	return nil
}
