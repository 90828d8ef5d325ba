package lp

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

// fullInstall is the factorization without installBasis's triangular
// peel: the basis columns in order of length, every one FTRANed through
// the factors before it and given a stored factor on the kernel's pick
// of the free rows, +1 unit columns included. It is the reference the
// peel must be invisible against.
func fullInstall[T any](e *engine[T], colIdx []int) error {
	order := slices.Clone(colIdx)
	slices.SortFunc(order, func(a, b int) int {
		if n := len(e.cols[a]) - len(e.cols[b]); n != 0 {
			return n
		}
		return a - b
	})
	e.basis = make([]int, len(e.b))
	for r := range e.basis {
		e.basis[r] = -1
	}
	e.etas = e.etas[:0]
	place := func(j, r int) error {
		w, nz := e.colFtran(j)
		if r < 0 {
			r = e.k.pickRow(w, nz, e.basis)
		}
		if r < 0 || !e.k.pivotOK(w[r]) {
			return errSingular
		}
		e.etas = append(e.etas, e.k.newEta(r, w, nz, nil))
		e.basis[r], e.inB[j] = j, true
		return nil
	}
	for _, j := range order {
		if err := place(j, -1); err != nil {
			return err
		}
	}
	pad := e.s.identityBasis(nil)
	for r, j := range e.basis {
		if j < 0 {
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
	e.setObjective(false)
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

// byColumn returns the basic value of every basic column — what a basis
// determines. Which row position holds it is the factorization's choice.
func byColumn[T any](e *engine[T]) map[int]T {
	out := make(map[int]T, len(e.basis))
	for r, j := range e.basis {
		out[j] = e.xB[r]
	}
	return out
}

// floatClose reports a and b within 1e-12 of each other, relative to
// the larger of |a| and 1.
func floatClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*max(1, math.Abs(a))
}

// sameColumns finds on form to the columns cols names on form from: the
// same part of the same variable, or the logical of the same constraint
// or bound row. Two seeds of one family agree on variables, rows and
// operators, not on which bounds their rows happen to imply, so a
// column's index on one form need not be its index on the other.
func sameColumns(t *testing.T, from, to *stdForm, cols []int) []int {
	t.Helper()
	key := func(s *stdForm, j int) [4]int {
		c := &s.cols[j]
		if c.kind == colStruct {
			return [4]int{int(c.kind), int(c.vr), boolInt(c.neg), 0}
		}
		r := &s.rows[c.row]
		return [4]int{int(c.kind), r.conIdx, int(r.boundVar), 1}
	}
	at := map[[4]int]int{}
	for j := range to.cols {
		at[key(to, j)] = j
	}
	out := make([]int, len(cols))
	for i, j := range cols {
		k, ok := at[key(from, j)]
		if !ok {
			t.Fatalf("column %d has no counterpart", j)
		}
		out[i] = k
	}
	return out
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestInstallBasisTriangular: across the float-first parity models, the
// 80-row dual-feasible case and the block-angular (broadcast-shaped)
// family, installing the optimal basis singleton-first stores no factor
// for a +1 unit column, and nothing a solve reads off the factorization
// can tell it from the reference that FTRANs every column — per-column
// basic values, objective, duals and the basic columns exactly in
// rationals; basic values and multipliers to a few ulps
// in float64, where two elimination orders round differently (measured:
// 2e-15 at worst) and floatClose allows a thousandth of the smallest
// difference a float judgment can see (ffEps).
func TestInstallBasisTriangular(t *testing.T) {
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
			tc{"wide-dantzig", wideSeededLEModel(seed, 0), Options{pricing: pricingDantzig, blandAfter: 2}, wideSeededLEModel(seed, 1)},
			tc{"block-angular", blockAngularSeededModel(seed, 0), Options{}, blockAngularSeededModel(seed, 1)})
	}
	// A basis whose right-hand side shrank under it: dual but not primal feasible.
	cases = append(cases, tc{"rhs-shift", wideRHSScaledModel(4), Options{}, wideRHSScaledModel(3)})

	skipped, peeled := 0, 0
	for _, c := range cases {
		donor, err := c.donor.SolveOpts(&c.opts)
		if err != nil || donor.Status != Optimal {
			continue // an unbounded or infeasible seed has no basis to install
		}
		s := standardized(c.m)
		colIdx := sameColumns(t, standardized(c.donor), s, donor.basis)

		re := installed[rat.Rat](t, ratKernel{}, s, colIdx, (*engine[rat.Rat]).installBasis)
		ref := installed[rat.Rat](t, ratKernel{}, s, colIdx, fullInstall[rat.Rat])
		checkEtaFile(t, re)
		skipped += len(ref.etas) - len(re.etas)
		peeled += len(re.etas) - re.peel.nucleus
		got, want := solution(re, Optimal), solution(ref, Optimal)
		if !maps.EqualFunc(byColumn(re), byColumn(ref), rat.Rat.Equal) {
			t.Fatalf("%s: rational basis or basic values moved", c.name)
		}
		if !got.Objective.Equal(want.Objective) || !slices.EqualFunc(duals(re), duals(ref), rat.Rat.Equal) ||
			!reflect.DeepEqual(got.basis, want.basis) {
			t.Fatalf("%s: rational objective, duals or basis moved", c.name)
		}

		fe := installed[float64](t, floatKernel{}, s, colIdx, (*engine[float64]).installBasis)
		fref := installed[float64](t, floatKernel{}, s, colIdx, fullInstall[float64])
		checkEtaFile(t, fe)
		if !maps.EqualFunc(byColumn(fe), byColumn(fref), floatClose) || !slices.EqualFunc(fe.y, fref.y, floatClose) {
			t.Fatalf("%s: float basis, basic values or multipliers moved", c.name)
		}
	}
	if skipped == 0 || peeled == 0 {
		t.Fatalf("%d unit columns skipped, %d factors taken without an FTRAN: both must happen", skipped, peeled)
	}
}

// TestInstallBasisSameRowTwice: a one-entry structural column and the
// slack of the same row cannot both be basic. The shortcut places the
// first without looking at any factor; the second must still find its
// row taken, so the certificate refuses the basis rather than install it
// wrong.
func TestInstallBasisSameRowTwice(t *testing.T) {
	build := func() *Model {
		m := NewModel()
		x, y := m.Var("x"), m.Var("y")
		m.Objective(Maximize, Expr{{x, ri(1)}, {y, ri(1)}})
		m.Le("cx", Expr{{x, ri(2)}}, ri(4)) // x's only row
		m.Le("cy", Expr{{y, ri(1)}}, ri(3))
		return m
	}
	s := standardized(build())
	colIdx := []int{0, 2} // x, and the slack of cx
	par := s.m.resolveParams(nil, len(s.rows), len(s.cols))
	if err := newEngine[rat.Rat](ratKernel{}, s, par).installBasis(colIdx); !errors.Is(err, errSingular) {
		t.Fatalf("rational install: %v, want errSingular", err)
	}
	if err := newEngine[float64](floatKernel{}, s, par).installBasis(colIdx); !errors.Is(err, errSingular) {
		t.Fatalf("float install: %v, want errSingular", err)
	}
}

// outcomeDiff reports how two solves of m differ, nil when they
// returned the same thing — status, objective, every value and dual,
// the basis and the whole SolveInfo — and, for an optimum, one
// the duality certificate accepts. It is an error, not a t.Fatal, for
// the tests that solve on goroutines of their own.
func outcomeDiff(m *Model, got, want *Solution) error {
	switch {
	case got.Status != want.Status || got.Info != want.Info:
		return fmt.Errorf("got %v %+v, want %v %+v", got.Status, got.Info, want.Status, want.Info)
	case !got.Objective.Equal(want.Objective) || !slices.EqualFunc(got.values, want.values, rat.Rat.Equal):
		return fmt.Errorf("got %v at %v, want %v at %v", got.Objective, got.values, want.Objective, want.values)
	case !reflect.DeepEqual(got.basis, want.basis):
		return fmt.Errorf("bases differ: got %+v, want %+v", got.basis, want.basis)
	case got.Status == Optimal:
		y, err := m.Duals(got)
		if err != nil {
			return err
		}
		if wy, err := m.Duals(want); err != nil || !slices.EqualFunc(y, wy, rat.Rat.Equal) {
			return fmt.Errorf("duals differ: got %v, want %v (%v)", y, wy, err)
		}
		return m.CheckOptimal(got.values, y)
	}
	return nil
}

// sameSolution demands two solves returned the same thing (outcomeDiff).
// m is the model that got solved.
func sameSolution(t *testing.T, m *Model, got, want *Solution) {
	t.Helper()
	if err := outcomeDiff(m, got, want); err != nil {
		t.Fatal(err)
	}
}

// TestInstallBasisShortHintPadsSameRows: a hint with fewer columns than
// rows (artificials stripped, redundant rows dropped) is completed with
// the logical columns of the rows it leaves, and which rows those are
// decides the basis. The reference takes, for each column, the first
// free row it is nonzero on; the peel must leave the same rows — first
// on a hand-made hint whose one row singleton sits on the wrong row,
// then on every third column struck from the optimal bases of the
// block-angular family, equality rows and all.
func TestInstallBasisShortHintPadsSameRows(t *testing.T) {
	check := func(name string, s *stdForm, colIdx []int) []int {
		t.Helper()
		re := installed[rat.Rat](t, ratKernel{}, s, colIdx, (*engine[rat.Rat]).installBasis)
		ref := installed[rat.Rat](t, ratKernel{}, s, colIdx, fullInstall[rat.Rat])
		if !maps.EqualFunc(byColumn(re), byColumn(ref), rat.Rat.Equal) {
			t.Fatalf("%s: the peel completed the hint to another basis than the reference", name)
		}
		// The float kernel picks rows by magnitude, in the reference too,
		// so only that it factors the hint is checked.
		installed[float64](t, floatKernel{}, s, colIdx, (*engine[float64]).installBasis)
		return re.basis
	}

	// y's only row singleton is r2, but eliminating x then y by first
	// free row takes r0 and r1: r2 is the row to pad.
	m := NewModel()
	x, y := m.Var("x"), m.Var("y")
	m.Objective(Maximize, Expr{{x, ri(1)}, {y, ri(1)}})
	m.Le("r0", Expr{{x, ri(1)}, {y, ri(1)}}, ri(4))
	m.Le("r1", Expr{{x, ri(1)}, {y, ri(2)}}, ri(6))
	m.Le("r2", Expr{{y, ri(1)}}, ri(5))
	s := standardized(m)
	if basis := check("hand-made", s, []int{0, 1}); s.cols[basis[2]].kind != colSlack {
		t.Fatalf("row r2 holds column %d, want its own slack", basis[2])
	}

	short := 0
	for seed := int64(0); seed < 12; seed++ {
		donor, err := blockAngularSeededModel(seed, 0).Solve()
		if err != nil || donor.Status != Optimal {
			t.Fatalf("seed %d: %v %v", seed, donor, err)
		}
		s := standardized(blockAngularSeededModel(seed, 0))
		var hint []int
		for i, j := range donor.basis {
			if i%3 != int(seed%3) {
				hint = append(hint, j)
			}
		}
		check("block-angular", s, hint)
		short += len(s.rows) - len(hint)
	}
	if short == 0 {
		t.Fatal("no row was left to padding")
	}
}

// TestInstallBroadcastBasisIsTriangular: the optimal basis of the n=24
// broadcast bound BenchmarkLPColdBroadcast24 solves (1 657 rows) peels
// away completely — no column is left to FTRAN, in either kernel.
func TestInstallBroadcastBasisIsTriangular(t *testing.T) {
	build := func() *Model {
		return broadcastBoundModel(platform.RandomConnected(rand.New(rand.NewSource(7)), 24, 24, 5, 5, 0.15), 0)
	}
	sol, err := build().Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("solve: %v %v", sol, err)
	}
	s := standardized(build())
	colIdx := sol.basis
	re := installed[rat.Rat](t, ratKernel{}, s, colIdx, (*engine[rat.Rat]).installBasis)
	fe := installed[float64](t, floatKernel{}, s, colIdx, (*engine[float64]).installBasis)
	t.Logf("%d rows, %d float pivots, %d factors stored", len(s.rows), sol.Info.FloatPivots, len(re.etas))
	if re.peel.nucleus != 0 || fe.peel.nucleus != 0 {
		t.Fatalf("nucleus of %d (rational) and %d (float) columns, want 0", re.peel.nucleus, fe.peel.nucleus)
	}
}
