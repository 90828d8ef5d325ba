package lp

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"repro/pkg/steady/rat"
)

// fullInstall is the factorization installBasis does without its
// shortcut: every column FTRANed and given a stored factor, +1 unit
// columns included. It is the reference the shortcut must be invisible
// against.
func fullInstall[T any](e *engine[T], colIdx []int) error {
	order := slices.Clone(colIdx)
	slices.SortFunc(order, func(a, b int) int {
		if n := len(e.cols[a]) - len(e.cols[b]); n != 0 {
			return n
		}
		return a - b
	})
	assigned := make([]bool, len(e.b))
	e.basis = make([]int, len(e.b))
	e.etas = e.etas[:0]
	place := func(j, r int) error {
		w := e.colFtran(j)
		if r < 0 {
			r = e.k.pickRow(w, assigned)
		}
		if r < 0 || !e.k.pivotOK(w[r]) {
			return errSingular
		}
		e.etas = append(e.etas, e.k.newEta(r, w))
		assigned[r], e.basis[r], e.inB[j] = true, j, true
		return nil
	}
	for _, j := range order {
		if err := place(j, -1); err != nil {
			return err
		}
	}
	pad := e.s.identityBasis()
	for r := range assigned {
		if !assigned[r] {
			if err := place(pad[e.rows[r]], r); err != nil {
				return err
			}
		}
	}
	return nil
}

// installed returns an engine over s with colIdx installed by install
// and everything a solve reads off a basis refreshed: basic values and
// the phase-2 multipliers.
func installed[T any](t *testing.T, k kernel[T], s *stdForm, colIdx []int, install func(*engine[T], []int) error) *engine[T] {
	t.Helper()
	e := newEngine(k, s, s.m.resolveParams(nil, len(s.rows), len(s.cols)))
	if err := install(e, colIdx); err != nil {
		t.Fatalf("install: %v", err)
	}
	e.recomputeXB()
	e.setPhase2Costs()
	e.computeY()
	return e
}

// checkEtaFile asserts the eta file holds at most one factor per basic
// column that is not a +1 unit column sitting on its own row.
func checkEtaFile[T any](t *testing.T, e *engine[T]) {
	t.Helper()
	want := 0
	for r, j := range e.basis {
		col := e.cols[j]
		if len(col) != 1 || col[0].row != r || e.k.less(col[0].v, e.one) || e.k.less(e.one, col[0].v) {
			want++
		}
	}
	if len(e.etas) > want {
		t.Fatalf("%d factors for %d basic columns, only %d of them not +1 unit columns", len(e.etas), len(e.basis), want)
	}
}

// TestInstallBasisSkipsUnitColumns: across the float-first parity
// models and the 80-row dual-repair case, installing the optimal basis
// stores no factor for a +1 unit column, and nothing a solve reads off
// the factorization can tell — exactly in rationals, bit for bit in
// float64.
func TestInstallBasisSkipsUnitColumns(t *testing.T) {
	type tc struct {
		name  string
		donor *Model // solved for the basis
		opts  Options
		m     *Model // the basis is installed here
	}
	var cases []tc
	for seed := int64(0); seed < 200; seed++ {
		cases = append(cases, tc{"small", randomSeededLEModel(seed, 0), Options{}, randomSeededLEModel(seed, 0)})
	}
	for seed := int64(0); seed < 12; seed++ {
		cases = append(cases,
			tc{"wide", wideSeededLEModel(seed, 0), Options{}, wideSeededLEModel(seed, 0)},
			tc{"wide-dantzig", wideSeededLEModel(seed, 0), Options{Pricing: PricingDantzig, BlandAfter: 2}, wideSeededLEModel(seed, 1)})
	}
	// The "wide" case of TestSolveFromAfterRHSShift.
	cases = append(cases, tc{"rhs-shift", wideRHSScaledModel(4), Options{}, wideRHSScaledModel(3)})

	skipped := 0
	for _, c := range cases {
		donor, err := c.donor.SolveOpts(&c.opts)
		if err != nil || donor.Status != Optimal {
			continue // an unbounded or infeasible seed has no basis to install
		}
		s := c.m.standardize()
		colIdx, ok := mapBasis(s, donor.Basis())
		if !ok {
			t.Fatalf("%s: own-shape basis does not map", c.name)
		}

		re := installed[rat.Rat](t, ratKernel{}, s, colIdx, (*engine[rat.Rat]).installBasis)
		ref := installed[rat.Rat](t, ratKernel{}, s, colIdx, fullInstall[rat.Rat])
		checkEtaFile(t, re)
		skipped += len(ref.etas) - len(re.etas)
		got, want := solution(re, Optimal), solution(ref, Optimal)
		if !slices.Equal(re.basis, ref.basis) || !slices.EqualFunc(re.xB, ref.xB, rat.Rat.Equal) {
			t.Fatalf("%s: rational basis or basic values moved", c.name)
		}
		if !got.Objective.Equal(want.Objective) || !slices.EqualFunc(got.duals, want.duals, rat.Rat.Equal) ||
			!reflect.DeepEqual(got.basis, want.basis) {
			t.Fatalf("%s: rational objective, duals or encoded basis moved", c.name)
		}

		fe := installed[float64](t, floatKernel{}, s, colIdx, (*engine[float64]).installBasis)
		fref := installed[float64](t, floatKernel{}, s, colIdx, fullInstall[float64])
		checkEtaFile(t, fe)
		if !slices.Equal(fe.basis, fref.basis) || !slices.Equal(fe.xB, fref.xB) || !slices.Equal(fe.y, fref.y) {
			t.Fatalf("%s: float basis, basic values or multipliers moved", c.name)
		}
	}
	if skipped == 0 {
		t.Fatal("no case had a unit column to skip")
	}
}

// TestInstallBasisSameRowTwice: a one-entry structural column and the
// slack of the same row cannot both be basic. The shortcut places the
// first without looking at any factor; the second must still find its
// row taken, so the hint is refused rather than installed wrong.
func TestInstallBasisSameRowTwice(t *testing.T) {
	build := func() *Model {
		m := NewModel()
		x, y := m.Var("x"), m.Var("y")
		m.Objective(Maximize, Expr{{x, ri(1)}, {y, ri(1)}})
		m.Le("cx", Expr{{x, ri(2)}}, ri(4)) // x's only row
		m.Le("cy", Expr{{y, ri(1)}}, ri(3))
		return m
	}
	bad := &Basis{nVars: 2, nCons: 2, entries: []basisEntry{
		{kind: colStruct, idx: 0}, {kind: colSlack, idx: 0},
	}}
	s := build().standardize()
	colIdx, ok := mapBasis(s, bad)
	if !ok {
		t.Fatal("well-formed basis does not map")
	}
	par := s.m.resolveParams(nil, len(s.rows), len(s.cols))
	if err := newEngine[rat.Rat](ratKernel{}, s, par).installBasis(colIdx); !errors.Is(err, errSingular) {
		t.Fatalf("rational install: %v, want errSingular", err)
	}
	if err := newEngine[float64](floatKernel{}, s, par).installBasis(colIdx); !errors.Is(err, errSingular) {
		t.Fatalf("float install: %v, want errSingular", err)
	}
	for _, floatFirst := range []bool{false, true} {
		sol, err := build().SolveOpts(&Options{WarmBasis: bad, FloatFirst: floatFirst})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Info.WarmStarted || !sol.Objective.Equal(ri(5)) {
			t.Fatalf("float-first %v: warm %v, objective %v; want a cold solve to 5", floatFirst, sol.Info.WarmStarted, sol.Objective)
		}
	}
}

// sameSolution demands two solves returned the same thing: status,
// objective, every value and dual, the encoded basis and the whole
// SolveInfo.
func sameSolution(t *testing.T, got, want *Solution) {
	t.Helper()
	if got.Status != want.Status || got.Info != want.Info || !reflect.DeepEqual(got.basis, want.basis) {
		t.Fatalf("status, info or basis differ:\n got %v %+v\nwant %v %+v", got.Status, got.Info, want.Status, want.Info)
	}
	assertIdentical(t, got.model, want, got)
}

// TestFloatScreen: with FloatFirst on, a warm basis is judged in
// float64 before any rational work. A foreign basis of the right shape
// is turned away there and the solve is the unhinted float-first solve,
// byte for byte; a neighbour's basis passes and the solve is the one
// the unscreened exact warm start (FloatFirst off) makes.
func TestFloatScreen(t *testing.T) {
	donor, err := wideSeededLEModel(2, 0).Solve()
	if err != nil || donor.Status != Optimal {
		t.Fatalf("donor: %v %v", donor, err)
	}

	foreign := wideSeededLEModel(5, 0)
	s := foreign.standardize()
	colIdx, ok := mapBasis(s, donor.Basis())
	if !ok {
		t.Fatal("same-shape basis does not map")
	}
	fe := newEngine[float64](floatKernel{}, s, s.m.resolveParams(nil, len(s.rows), len(s.cols)))
	if _, ok := fe.startFrom(colIdx); ok {
		t.Fatal("float screen passed a foreign basis")
	}
	hinted, err := foreign.SolveOpts(&Options{WarmBasis: donor.Basis(), FloatFirst: true})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := wideSeededLEModel(5, 0).SolveOpts(&Options{FloatFirst: true})
	if err != nil {
		t.Fatal(err)
	}
	if hinted.Info.WarmStarted || hinted.Info.FloatPivots == 0 {
		t.Fatalf("foreign basis: %+v, want a float-first solve", hinted.Info)
	}
	sameSolution(t, hinted, plain)

	for perturb := int64(1); perturb <= 3; perturb++ {
		screened, err := wideSeededLEModel(2, perturb).SolveOpts(&Options{WarmBasis: donor.Basis(), FloatFirst: true})
		if err != nil {
			t.Fatal(err)
		}
		exact, err := wideSeededLEModel(2, perturb).SolveOpts(&Options{WarmBasis: donor.Basis()})
		if err != nil {
			t.Fatal(err)
		}
		if !screened.Info.WarmStarted {
			t.Fatalf("perturb %d: neighbour's basis refused: %+v", perturb, screened.Info)
		}
		sameSolution(t, screened, exact)
	}
}
