package lp

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/pkg/steady/obs"
	"repro/pkg/steady/rat"
)

// ErrIterationLimit is returned when the pivot budget is exhausted
// (see Options.PivotBudget). Under the default options — which keep
// the Bland anti-cycling fallback armed — this indicates a genuinely
// enormous problem rather than cycling.
var ErrIterationLimit = errors.New("lp: iteration limit exceeded")

var (
	errUnbounded   = errors.New("lp: unbounded")
	errSingular    = errors.New("lp: singular basis")
	errDualNoPivot = errors.New("lp: dual simplex found no entering column")
)

// reinvertEvery bounds the eta file growth: after this many pivots
// since the last refactorization the basis is factored from scratch,
// keeping FTRAN/BTRAN passes short, rational operands small and float
// error from accumulating.
const reinvertEvery = 64

// engine is the sparse revised simplex over a standardized model:
// basis inverse in product form, reduced costs priced from a BTRAN
// pass per iteration, columns touched through their sparse entries
// only. It is instantiated twice — over exact rationals (every
// certified number comes from that one) and over float64 (the
// float-first search) — and every pivoting decision below is shared,
// so the two walk the same pivot sequence wherever the float kernel's
// judgments agree with the exact ones.
type engine[T any] struct {
	k   kernel[T]
	s   *stdForm
	par params

	// The system the engine works on. Redundant-row removal rewrites
	// these and never the shared form, whose columns the basis indexes
	// and whose rows rows[i] names.
	cols [][]entry[T]
	b    []T
	rows []int // row position -> index into s.rows

	basis  []int // column basic at each row position
	inB    []bool
	xB     []T // current basic values, maintained per pivot
	etas   []eta[T]
	banned []bool
	c      []T // current phase costs per column
	one    T   // 1, the seed of a unit row
	y      []T // scratch: simplex multipliers c_B B^-1
	w      []T // scratch: FTRANed entering column
	rho    []T // scratch: BTRANed unit row (dual pricing)

	info          SolveInfo
	sinceRefactor int  // pivots since the last refactorization
	degen         int  // consecutive degenerate pivots
	blandOn       bool // Bland fallback currently engaged
}

// Solve runs the exact revised simplex with the default options and
// returns an exact rational optimum (or Infeasible/Unbounded status).
func (m *Model) Solve() (*Solution, error) { return m.SolveOpts(nil) }

// SolveFrom is Solve warm-started from the optimal basis of a
// structurally identical model (see Basis). A basis that does not fit
// falls back to a cold solve.
func (m *Model) SolveFrom(b *Basis) (*Solution, error) {
	return m.SolveOpts(&Options{WarmBasis: b})
}

// SolveOpts runs the exact revised simplex under explicit options.
// A nil opts is Solve.
func (m *Model) SolveOpts(opts *Options) (*Solution, error) {
	if opts == nil || opts.Obs == nil {
		return m.solveDispatch(opts)
	}
	span := opts.Obs.StartSpan("lp_solve")
	sol, err := m.solveDispatch(opts)
	span.End()
	flushSolveMetrics(opts, sol, err)
	return sol, err
}

// solveDispatch standardizes the model once and hands that one form to
// the warm / float-first / cold stages.
func (m *Model) solveDispatch(opts *Options) (*Solution, error) {
	s := m.standardize()
	par := m.resolveParams(opts, len(s.rows), len(s.cols))
	reg := obsOf(opts)
	var fe *engine[float64] // float-first only: screens a warm basis, then searches
	if opts != nil && opts.FloatFirst {
		fe = newEngine[float64](floatKernel{}, s, par)
	}
	if opts != nil && opts.WarmBasis != nil {
		if sol := solveWarm(s, opts.WarmBasis, par, fe, reg); sol != nil {
			return sol, nil
		}
		// Warm basis rejected: solve cold (float-first when asked).
	}
	if fe != nil {
		return solveFloatFirst(s, fe, par, resolveRepairBudget(opts, len(s.rows)), reg)
	}
	return solveCold(s, par, reg)
}

func newEngine[T any](k kernel[T], s *stdForm, par params) *engine[T] {
	e := &engine[T]{
		k:      k,
		s:      s,
		par:    par,
		rows:   make([]int, len(s.rows)),
		inB:    make([]bool, len(s.cols)),
		banned: make([]bool, len(s.cols)),
		c:      make([]T, len(s.cols)),
		one:    k.conv(rat.One()),
	}
	e.cols, e.b = k.load(s)
	for i := range e.rows {
		e.rows[i] = i
	}
	return e
}

// solveCold runs the classic two-phase simplex from the all-logical
// starting basis.
func solveCold(s *stdForm, par params, reg *obs.Registry) (*Solution, error) {
	e := newEngine[rat.Rat](ratKernel{}, s, par)
	status, err := e.twoPhase(reg)
	if err != nil {
		return nil, err
	}
	return solution(e, status), nil
}

// solveWarm reoptimizes from a caller's basis; nil sends the caller to
// a cold solve. Given the float engine of a float-first solve, the
// basis is first installed and judged there: a hint that is not even a
// float starting point (the basis of a different platform, say) is
// turned away for a few float FTRANs instead of an exact
// factorization. The screen can cost a warm start when float64
// misjudges a usable basis; it cannot cost correctness, because every
// basis it passes is still judged, and every answer still computed, by
// the exact solve below.
func solveWarm(s *stdForm, b *Basis, par params, fe *engine[float64], reg *obs.Registry) *Solution {
	sp := reg.StartSpan("lp_warm")
	defer sp.End()
	colIdx, ok := mapBasis(s, b)
	if !ok {
		return nil
	}
	if fe != nil {
		if _, ok := fe.startFrom(colIdx); !ok {
			return nil
		}
	}
	sol := solveFromBasis(s, colIdx, par)
	if sol != nil {
		sol.Info.WarmStarted = true
	}
	return sol
}

// solveFromBasis is the exact solve from the given basic columns,
// shared by warm starts and the float-first certificate: install them
// over rationals and reoptimize. nil means the basis was no use and the
// caller must solve cold.
func solveFromBasis(s *stdForm, colIdx []int, par params) *Solution {
	e := newEngine[rat.Rat](ratKernel{}, s, par)
	status, ok := e.reoptimize(colIdx)
	if !ok {
		return nil
	}
	return solution(e, status)
}

// --- drivers -----------------------------------------------------------

// twoPhase runs the two-phase simplex from the all-logical starting
// basis to a status. reg times the phases (nil: untimed).
func (e *engine[T]) twoPhase(reg *obs.Registry) (Status, error) {
	// The float engine may arrive from screening a warm basis: start
	// over from its loaded columns.
	clear(e.inB)
	clear(e.banned)
	e.etas = e.etas[:0]
	e.info = SolveInfo{}
	e.basis = e.s.identityBasis()
	for _, j := range e.basis {
		e.inB[j] = true
	}
	e.xB = append(e.xB[:0], e.b...)

	hasArt := false
	for j := range e.s.cols {
		if e.s.cols[j].kind == colArtificial {
			hasArt = true
			break
		}
	}
	if hasArt {
		// Phase 1: maximize -(sum of artificials).
		sp := reg.StartSpan("lp_phase1")
		e.setPhase1Costs()
		err := e.primal()
		sp.End()
		if err != nil {
			if errors.Is(err, errUnbounded) {
				return 0, fmt.Errorf("lp: phase 1 unbounded (internal error)")
			}
			return 0, fmt.Errorf("phase 1: %w", err)
		}
		var art []T
		for i, bj := range e.basis {
			if e.s.cols[bj].kind == colArtificial {
				art = append(art, e.xB[i])
			}
		}
		if !e.k.feasible(art, e.b) {
			return Infeasible, nil
		}
		e.info.Phase1Pivots = e.info.Pivots
		if err := e.banArtificials(); err != nil {
			return 0, err
		}
	}

	e.setPhase2Costs()
	sp := reg.StartSpan("lp_phase2")
	err := e.primal()
	sp.End()
	if err != nil {
		if errors.Is(err, errUnbounded) {
			return Unbounded, nil
		}
		return 0, fmt.Errorf("phase 2: %w", err)
	}
	return Optimal, nil
}

// startFrom installs colIdx as the basis under the phase-2 costs and
// judges it as a starting point: primal reports every basic value
// non-negative, ok that the basis is at least primal or dual feasible.
func (e *engine[T]) startFrom(colIdx []int) (primal, ok bool) {
	// Artificials exist only as padding for rows the basis does not
	// cover (redundant rows, leftover degenerate artificials); they are
	// banned from entering throughout.
	for j := range e.s.cols {
		if e.s.cols[j].kind == colArtificial {
			e.banned[j] = true
		}
	}
	if err := e.installBasis(colIdx); err != nil {
		return false, false
	}
	e.recomputeXB()
	e.setPhase2Costs()
	if e.primalFeasible() {
		return true, true
	}
	return false, e.dualFeasible()
}

// reoptimize starts from colIdx and reoptimizes: straight to primal
// phase 2 when the basis is primal feasible, dual simplex repair first
// when it is only dual feasible, rejection (ok false) otherwise.
//
// Any reoptimization failure that is not a definitive status — pivot
// budget exhausted mid-repair, dual simplex out of entering columns —
// means the basis was a bad starting point, not that the LP is
// unsolvable: it is rejected and the cold two-phase solve makes the
// authoritative call (the documented contract of Options.WarmBasis).
// Unbounded is definitive: it is only reported from a feasible basis
// along an unbounded improving ray.
func (e *engine[T]) reoptimize(colIdx []int) (status Status, ok bool) {
	primal, ok := e.startFrom(colIdx)
	if !ok {
		return 0, false
	}
	if !primal {
		if err := e.dual(); err != nil {
			return 0, false
		}
	}
	if err := e.primal(); err != nil { // after dual repair: usually 0 iterations
		if errors.Is(err, errUnbounded) {
			return Unbounded, true
		}
		return 0, false
	}

	// A padding artificial that settled at a nonzero value means the
	// basis solves a restriction that is not the real LP.
	for i, bj := range e.basis {
		if e.s.cols[bj].kind == colArtificial && e.k.sign(e.xB[i]) != 0 {
			return 0, false
		}
	}
	return Optimal, true
}

// --- simplex iterations ----------------------------------------------

// primal runs revised primal simplex iterations until optimality
// (no improving column) or unboundedness.
func (e *engine[T]) primal() error {
	for {
		enter := e.price()
		if enter < 0 {
			return nil
		}
		w := e.colFtran(enter)
		leave := e.ratioTest(w)
		if leave < 0 {
			return errUnbounded
		}
		if e.info.Pivots >= e.par.budget {
			return ErrIterationLimit
		}
		if err := e.pivot(leave, enter, w); err != nil {
			return err
		}
	}
}

// dual runs revised dual simplex iterations from a dual-feasible
// basis until primal feasibility.
func (e *engine[T]) dual() error {
	for {
		// Leaving: most negative basic value, ties by smallest basic
		// column index.
		r := -1
		var most T
		for i := range e.xB {
			if e.k.sign(e.xB[i]) >= 0 {
				continue
			}
			c := -1
			if r >= 0 {
				c = e.k.cmp(e.xB[i], most)
			}
			if c < 0 || (c == 0 && e.basis[i] < e.basis[r]) {
				r, most = i, e.xB[i]
			}
		}
		if r < 0 {
			return nil
		}
		if e.info.Pivots >= e.par.budget {
			return ErrIterationLimit
		}
		// Row r of B^-1 A, priced against the reduced costs: enter the
		// column minimizing d_j / alpha_rj over alpha_rj < 0.
		rho := e.unitBtran(r)
		e.computeY()
		enter := -1
		var bestRatio T
		for j := range e.cols {
			if e.banned[j] || e.inB[j] {
				continue
			}
			alpha := e.k.dot(e.cols[j], rho)
			if e.k.sign(alpha) >= 0 {
				continue
			}
			ratio := e.k.div(e.reducedCost(j), alpha)
			if enter < 0 || e.k.cmp(ratio, bestRatio) < 0 {
				enter, bestRatio = j, ratio
			}
		}
		if enter < 0 {
			return errDualNoPivot
		}
		w := e.colFtran(enter)
		if err := e.pivot(r, enter, w); err != nil {
			return err
		}
	}
}

// price selects the entering column: -1 at optimality, otherwise per
// Dantzig's rule or — when the caller asked for it or the degeneracy
// fallback engaged — Bland's rule.
func (e *engine[T]) price() int {
	e.computeY()
	bland := e.blandOn || e.par.pricing == PricingBland
	enter := -1
	var best T
	for j := range e.cols {
		if e.banned[j] || e.inB[j] {
			continue
		}
		d := e.reducedCost(j)
		if e.k.sign(d) <= 0 {
			continue
		}
		if bland {
			return j
		}
		if enter < 0 || e.k.less(best, d) {
			enter, best = j, d
		}
	}
	return enter
}

// ratioTest returns the leaving row for entering direction w: the
// minimum of xB_i / w_i over w_i > 0, ties by smallest basic column
// index (Bland's leaving rule, also the deterministic tie-break).
// Zero basic values short-circuit the division: their ratio is 0,
// the smallest possible, so once one is seen only the tie-break
// among zero rows matters.
func (e *engine[T]) ratioTest(w []T) int {
	leave := -1
	bestZero := false
	var best T
	for i := range w {
		if e.k.sign(w[i]) <= 0 {
			continue
		}
		if e.k.sign(e.xB[i]) == 0 {
			if !bestZero || e.basis[i] < e.basis[leave] {
				leave, bestZero = i, true
			}
			continue
		}
		if bestZero {
			continue
		}
		ratio := e.k.div(e.xB[i], w[i])
		c := -1
		if leave >= 0 {
			c = e.k.cmp(ratio, best)
		}
		if c < 0 || (c == 0 && e.basis[i] < e.basis[leave]) {
			// On a tie within tolerance the row changes but the
			// smaller ratio stays the reference.
			if c < 0 || e.k.less(ratio, best) {
				best = ratio
			}
			leave = i
		}
	}
	return leave
}

// pivot replaces the basic column of row r with enter, whose FTRANed
// direction is w. It updates the basic values, appends the eta factor,
// and maintains the degeneracy/fallback and refactorization state.
func (e *engine[T]) pivot(r, enter int, w []T) error {
	if !e.k.pivotOK(w[r]) {
		return errSingular
	}
	if e.blandOn {
		e.info.BlandPivots++
	}
	theta := e.k.div(e.xB[r], w[r])
	degenerate := e.k.sign(theta) == 0
	if degenerate {
		// A degenerate pivot moves nothing: the basic values are
		// unchanged (the paper's LPs have all-zero equality rows, so
		// phase 1 is almost entirely degenerate — skipping the update
		// is a measurable share of the solve).
		var zero T
		e.xB[r] = zero
	} else {
		e.k.step(e.xB, r, theta, w)
	}
	e.etas = append(e.etas, e.k.newEta(r, w))
	e.inB[e.basis[r]] = false
	e.basis[r] = enter
	e.inB[enter] = true
	e.info.Pivots++
	if degenerate {
		e.degen++
		if !e.par.noFallback && e.degen >= e.par.blandAfter {
			e.blandOn = true
		}
	} else {
		e.degen = 0
		e.blandOn = false
	}
	e.sinceRefactor++
	if e.sinceRefactor >= reinvertEvery {
		return e.reinvert()
	}
	return nil
}

// banArtificials excludes artificial columns after phase 1, pivoting
// out any artificial that is still (degenerately) basic and removing
// rows that turn out to be redundant.
func (e *engine[T]) banArtificials() error {
	for j := range e.s.cols {
		if e.s.cols[j].kind == colArtificial {
			e.banned[j] = true
		}
	}
	for i := 0; i < len(e.basis); i++ {
		if e.s.cols[e.basis[i]].kind != colArtificial {
			continue
		}
		// Row i of B^-1 A: any unbanned nonbasic column with a usable
		// entry can replace the artificial (xB[i] is 0, so the pivot is
		// degenerate and sign-free).
		rho := e.unitBtran(i)
		pivoted := false
		for j := range e.cols {
			if e.banned[j] || e.inB[j] || !e.k.pivotOK(e.k.dot(e.cols[j], rho)) {
				continue
			}
			w := e.colFtran(j)
			if !e.k.pivotOK(w[i]) {
				continue
			}
			if err := e.pivot(i, j, w); err != nil {
				return err
			}
			pivoted = true
			break
		}
		if !pivoted {
			// Redundant row: remove it (and the artificial with it).
			if err := e.dropRow(i); err != nil {
				return err
			}
			i--
		}
	}
	return nil
}

// dropRow removes row position i from the engine's system and
// refactors the shrunk basis.
func (e *engine[T]) dropRow(i int) error {
	e.inB[e.basis[i]] = false
	e.basis = slices.Delete(e.basis, i, i+1)
	e.rows = slices.Delete(e.rows, i, i+1)
	e.b = slices.Delete(slices.Clone(e.b), i, i+1)
	for j, col := range e.cols {
		nz := make([]entry[T], 0, len(col))
		for _, en := range col {
			if en.row == i {
				continue
			}
			if en.row > i {
				en.row--
			}
			nz = append(nz, en)
		}
		e.cols[j] = nz
	}
	return e.reinvert()
}

// --- basis factorization ---------------------------------------------

// installBasis factors the given columns as the basis (sparser columns
// first, for shorter etas), padding rows they do not cover with the
// row's own logical column. Which row a column lands on is the
// kernel's choice, so callers must recomputeXB.
//
// A column whose one entry sits on a still-unassigned row is placed
// without an FTRAN: every factor so far pivots on some other row, where
// the column is zero, so the pass would hand it back unchanged. When
// that entry is 1 its factor is the identity and is not stored — the
// slacks that make up most of a platform LP's basis cost nothing here
// and nothing in any later FTRAN or BTRAN. Neither kernel can tell: the
// rational values are the same, and a stored identity factor would only
// ever have multiplied a float64 by 1.0.
func (e *engine[T]) installBasis(colIdx []int) error {
	e.info.Refactorizations++
	e.sinceRefactor = 0
	mRows := len(e.b)
	order := slices.Clone(colIdx)
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(len(e.cols[a]), len(e.cols[b])); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	assigned := make([]bool, mRows)
	e.basis = make([]int, mRows)
	e.etas = e.etas[:0]
	place := func(j, r int) error {
		if col := e.cols[j]; len(col) == 1 && !assigned[col[0].row] && (r < 0 || r == col[0].row) {
			r = col[0].row
			v := col[0].v
			if !e.k.pivotOK(v) {
				return errSingular
			}
			if e.k.less(v, e.one) || e.k.less(e.one, v) {
				e.etas = append(e.etas, eta[T]{r: r, diag: e.k.div(e.one, v)})
			}
		} else {
			w := e.colFtran(j)
			if r < 0 {
				r = e.k.pickRow(w, assigned)
			} else if !e.k.pivotOK(w[r]) {
				r = -1
			}
			if r < 0 {
				return errSingular
			}
			e.etas = append(e.etas, e.k.newEta(r, w))
		}
		assigned[r] = true
		e.basis[r] = j
		e.inB[j] = true
		return nil
	}
	for _, j := range order {
		if err := place(j, -1); err != nil {
			return err
		}
	}
	var pad []int
	for r := 0; r < mRows; r++ {
		if assigned[r] {
			continue
		}
		if pad == nil {
			pad = e.s.identityBasis()
		}
		j := pad[e.rows[r]]
		if e.inB[j] {
			return errSingular
		}
		if err := place(j, r); err != nil {
			return err
		}
	}
	return nil
}

// reinvert refactors the current basis from scratch, replacing the
// eta file with one factor per basic column.
func (e *engine[T]) reinvert() error {
	if err := e.installBasis(e.basis); err != nil {
		return err
	}
	e.recomputeXB()
	return nil
}

// recomputeXB refreshes the basic values from the factorization.
func (e *engine[T]) recomputeXB() {
	e.xB = append(e.xB[:0], e.b...)
	e.k.ftran(e.etas, e.xB)
}

// scratch returns buf resized to the current row count and zeroed.
func (e *engine[T]) scratch(buf []T) []T {
	if cap(buf) < len(e.b) {
		return make([]T, len(e.b))
	}
	buf = buf[:len(e.b)]
	clear(buf)
	return buf
}

// colFtran returns B^-1 a_j in the engine's shared scratch vector
// (valid until the next colFtran call; an eta copies what it keeps).
func (e *engine[T]) colFtran(j int) []T {
	e.w = e.scratch(e.w)
	for _, en := range e.cols[j] {
		e.w[en.row] = en.v
	}
	e.k.ftran(e.etas, e.w)
	return e.w
}

// unitBtran returns e_r B^-1 (row r of the basis inverse) in a
// second shared scratch vector, independent of colFtran's.
func (e *engine[T]) unitBtran(r int) []T {
	e.rho = e.scratch(e.rho)
	e.rho[r] = e.one
	e.k.btran(e.etas, e.rho)
	return e.rho
}

// --- pricing helpers -------------------------------------------------

// computeY refreshes the simplex multipliers y = c_B B^-1.
func (e *engine[T]) computeY() {
	e.y = e.scratch(e.y)
	for i, bj := range e.basis {
		e.y[i] = e.c[bj]
	}
	e.k.btran(e.etas, e.y)
}

// reducedCost returns d_j = c_j - y . a_j for the current multipliers.
func (e *engine[T]) reducedCost(j int) T {
	return e.k.reducedCost(e.c[j], e.cols[j], e.y)
}

// setPhase1Costs installs the feasibility objective -(sum of
// artificials).
func (e *engine[T]) setPhase1Costs() {
	minusOne := e.k.conv(rat.FromInt(-1))
	clear(e.c)
	for j := range e.c {
		if e.s.cols[j].kind == colArtificial {
			e.c[j] = minusOne
		}
	}
}

// setPhase2Costs installs the model objective (negated for
// minimization; split over the halves of free variables).
func (e *engine[T]) setPhase2Costs() {
	clear(e.c)
	for j := range e.c {
		col := &e.s.cols[j]
		if col.kind != colStruct {
			continue
		}
		c := e.s.m.obj[col.vr]
		if col.neg {
			c = c.Neg()
		}
		if e.s.m.sense == Minimize {
			c = c.Neg()
		}
		e.c[j] = e.k.conv(c)
	}
}

// primalFeasible reports every basic value non-negative.
func (e *engine[T]) primalFeasible() bool {
	for i := range e.xB {
		if e.k.sign(e.xB[i]) < 0 {
			return false
		}
	}
	return true
}

// dualFeasible reports every nonbasic unbanned reduced cost
// non-positive under the current costs.
func (e *engine[T]) dualFeasible() bool {
	e.computeY()
	for j := range e.cols {
		if e.banned[j] || e.inB[j] {
			continue
		}
		if e.k.sign(e.reducedCost(j)) > 0 {
			return false
		}
	}
	return true
}

// --- solution extraction ---------------------------------------------

// solution renders the exact engine's final state as a Solution. For
// Optimal: primal values from the basic variables, duals from the
// phase-2 simplex multipliers, and the basis in model terms for warm
// re-solves.
func solution(e *engine[rat.Rat], status Status) *Solution {
	m := e.s.m
	if status != Optimal {
		return &Solution{Status: status, Info: e.info, model: m}
	}
	values := make([]rat.Rat, m.NumVars())
	for i, bj := range e.basis {
		col := &e.s.cols[bj]
		if col.kind != colStruct {
			continue
		}
		if col.neg {
			values[col.vr] = values[col.vr].Sub(e.xB[i])
		} else {
			values[col.vr] = values[col.vr].Add(e.xB[i])
		}
	}

	e.computeY()
	duals := make([]rat.Rat, m.NumCons())
	for i, ri := range e.rows {
		r := &e.s.rows[ri]
		if r.conIdx < 0 {
			continue
		}
		y := e.y[i]
		if r.flipped {
			y = y.Neg()
		}
		if m.sense == Minimize {
			y = y.Neg()
		}
		duals[r.conIdx] = y
	}

	return &Solution{
		Status:    Optimal,
		Objective: m.ObjectiveAt(values),
		Info:      e.info,
		values:    values,
		duals:     duals,
		basis:     encodeBasis(e.s, e.basis),
		model:     m,
	}
}
