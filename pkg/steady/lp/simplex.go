package lp

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/pkg/steady/obs"
	"repro/pkg/steady/rat"
)

// ErrIterationLimit is returned when the pivot budget,
// 200*(rows+cols+1), is exhausted. With the Bland anti-cycling fallback
// armed, as it always is, this indicates a genuinely enormous problem
// rather than cycling.
var ErrIterationLimit = errors.New("lp: iteration limit exceeded")

// ErrInterrupted is returned by a solve whose Options.Interrupt was
// closed before it finished. It says nothing about the model.
var ErrInterrupted = errors.New("lp: interrupted")

var (
	errUnbounded = errors.New("lp: unbounded")
	errSingular  = errors.New("lp: singular basis")
)

// reinvertEvery bounds the eta file growth: after this many pivots
// since the last refactorization the basis is factored from scratch,
// keeping FTRAN/BTRAN passes short, rational operands small and float
// error from accumulating. A refactorization costs a few passes over
// the basis's nonzeros (installBasis), less than the update etas of a
// few dozen pivots cost every FTRAN and BTRAN after them. Since cold
// solves start from the crash basis the walks are short, and the
// interval hardly matters above 16 (-cpu 1, ms per solve):
//
//	interval             64     32     16      8
//	LPColdMiss48       0.34   0.34   0.35   0.39   (9.5 pivots)
//	LPColdBroadcast24   3.2    3.4    3.4    3.6   (34)
//	LPColdBroadcast48  19.7   18.7   18.9   19.6   (71)
//	LPColdReduce48     52.0   43.5   43.7      -   (310)
//
// 16 is kept for the long walks that remain: phase 1 on a nonzero
// right-hand side and the exact walk of a fallback. A rule on eta-file
// nonzeros (refactor once the updates outweigh the fresh factor)
// measured no better than 32 and needs a second counter.
const reinvertEvery = 16

// engine is the sparse revised simplex over a standardized model:
// basis inverse in product form — at each refactorization the
// triangular factor installBasis peels out of the basis, then one eta
// per pivot — reduced costs priced from a BTRAN pass per iteration,
// columns touched through their sparse entries and an FTRANed column
// through the list of its nonzero rows. It is instantiated twice — over exact rationals (every
// certified number comes from that one) and over float64 (the search
// of every cold solve) — and every pivoting decision below is shared,
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
	nz   []entry[T] // block load carves cols from, when it copies them
	b    []T
	rows []int // row position -> index into s.rows

	basis  []int // column basic at each row position
	inB    []bool
	xB     []T // current basic values, maintained per pivot
	etas   []eta[T]
	pool   []entry[T] // block the etas' entries are carved from, reused once they are dropped
	banned []bool
	c      []T // current phase costs per column
	one    T   // 1, the seed of a unit row
	y      []T // scratch: simplex multipliers c_B B^-1
	rho    []T // scratch: BTRANed unit row (banArtificials)
	// scratch: the FTRANed column, zero outside the ascending rows wnz —
	// what reads or clears it walks that list, not all m rows.
	w    []T
	wnz  []int
	peel peel // scratch: installBasis's counters, queues and row lists
	// hint (float engine): scratch for the basic columns Certify hands
	// the exact engine.
	hint []int

	info          SolveInfo
	sinceRefactor int  // pivots since the last refactorization
	degen         int  // consecutive degenerate pivots
	blandOn       bool // Bland fallback currently engaged
	// yFresh: y is c_B B^-1 of the current basis and costs. computeY
	// sets it; a pivot, a refactorization (and so a dropped row) and a
	// change of costs clear it.
	yFresh bool
}

// Why a cold solve's float basis went to the exact walk, the reason
// label of steady_lp_exact_fallbacks_total.
const (
	// fallbackSearchStatus: the float search failed, or ended on a
	// status other than Optimal, which only the exact walk may answer.
	fallbackSearchStatus = "search_status"
	// fallbackSingularInstall: the exact install of the float basis
	// found it singular.
	fallbackSingularInstall = "singular_install"
	// fallbackNotOptimal: the installed basis is not an optimum of the
	// LP: a basic value or a reduced cost has the wrong sign, or a
	// padding artificial sits basic at a nonzero value.
	fallbackNotOptimal = "not_optimal"
)

// scrub detaches e from its form and the caller's channel and zeroes,
// up to its capacity, every slice that holds a T or a slice of the
// form: a solve leaves values past the length it ends at, and b and
// cols may alias the form.
func (e *engine[T]) scrub() {
	e.s, e.par, e.b = nil, params{}, nil
	clear(e.cols[:cap(e.cols)])
	clear(e.xB[:cap(e.xB)])
	clear(e.etas[:cap(e.etas)])
	clear(e.pool[:cap(e.pool)])
	clear(e.c[:cap(e.c)])
	clear(e.y[:cap(e.y)])
	clear(e.rho[:cap(e.rho)])
	clear(e.w[:cap(e.w)])
}

// reset points the engine at form s in the state of a new one, keeping
// the capacity of every buffer an earlier solve grew. Once the caller's
// channel is closed it stops and reports false, with a load nobody may
// read.
func (e *engine[T]) reset(s *stdForm, par params) bool {
	m := len(s.rows)
	e.s, e.par, e.one = s, par, e.k.conv(rat.One())
	e.info, e.sinceRefactor, e.degen, e.blandOn, e.yFresh = SolveInfo{}, 0, 0, false, false
	e.rows = filled(e.rows, m, 0)
	for i := range e.rows {
		e.rows[i] = i
	}
	e.b = e.k.rhs(s.b, e.b)
	e.w, e.wnz = zeroed(e.w, m), e.wnz[:0]
	e.etas, e.pool, e.xB, e.basis = e.etas[:0], e.pool[:0], e.xB[:0], e.basis[:0]
	e.nz, e.cols, e.inB, e.banned, e.c = e.nz[:0], e.cols[:0], e.inB[:0], e.banned[:0], e.c[:0]
	for range s.cols {
		if len(e.cols)%pollEvery == 0 && par.stopped() {
			return false
		}
		e.addColumn()
	}
	return true
}

// addColumn loads the form's next column into the engine: nonbasic,
// banned if its session banned it, at cost 0 until setObjective.
func (e *engine[T]) addColumn() {
	j := len(e.cols)
	var col []entry[T]
	col, e.nz = e.k.column(e.s.cols[j].nz, e.nz)
	var zero T
	e.cols, e.inB, e.banned, e.c = append(e.cols, col), append(e.inB, false), append(e.banned, false), append(e.c, zero)
	if e.s.cols[j].banned {
		e.ban(j)
	}
}

// ban keeps column j out of every basis from here on: price never
// enters it, and basic at 0 it holds its row as an equality until a
// pivot takes it out (see ratioTest). The one way a column is banned —
// an artificial by crash, banArtificials and checkBasis, a column its
// session fixed at 0 (Session.Ban) by reset and addColumn.
func (e *engine[T]) ban(j int) { e.banned[j] = true }

// --- drivers -----------------------------------------------------------

// twoPhase runs the simplex from the all-logical starting basis to a
// status. Phase 1, maximize -(sum of artificials), runs only when some
// GE or EQ row has a nonzero right-hand side. On a homogeneous form the
// origin is feasible and phase 1 would start at its optimum, so crash
// hands phase 2 a start there instead (Phase1Pivots 0). reg times the
// phases (nil: untimed).
func (e *engine[T]) twoPhase(reg *obs.Registry) (Status, error) {
	e.basis = e.s.identityBasis(e.basis)
	for _, j := range e.basis {
		e.inB[j] = true
	}
	e.xB = append(e.xB[:0], e.b...)

	if e.s.homogeneous {
		if err := e.crash(); err != nil {
			return 0, err
		}
	} else {
		sp := reg.StartSpan("lp_phase1")
		e.setObjective(true)
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
	return e.phase2(reg)
}

// phase2 installs the form's costs and walks from the current basis,
// primal feasible, to a status: the end of twoPhase, and all of a
// session's search after a column or an objective entered.
func (e *engine[T]) phase2(reg *obs.Registry) (Status, error) {
	e.setObjective(false)
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

// crash starts phase 2 on a homogeneous form. It bans the artificials
// where they stand, basic at 0, and hands their rows to structural
// columns the way peelColumns builds the back of a triangle: walking
// the columns in index order, then each column a newly covered row
// leaves with one, a column with exactly one entry on the rows
// artificials still hold takes that row. A placed column is zero on the
// rows still held after it, so the placed columns form a triangle on
// rows whose right-hand side is 0: they all sit at 0, and the slacks
// keep their values. The ratio test keeps each artificial left basic at
// 0 (see ratioTest), so phase 2 solves the LP itself.
//
// The walk visits every column in order, not only the first singletons
// as peelColumns does: seeded with those alone it builds another
// triangle, from which the broadcast n=48 walk takes 1 829 float pivots
// instead of 71.
func (e *engine[T]) crash() error {
	f := &e.peel
	m, n := len(e.b), len(e.cols)
	held := func(r int) bool { return e.s.cols[e.basis[r]].kind == colArtificial }
	// colCnt[j]: entries of structural column j on held rows; byRow
	// lists, for each held row, the columns with an entry on it.
	f.colCnt, f.start = filled(f.colCnt, n, 0), filled(f.start, m+1, 0)
	for j := range e.cols {
		if j%pollEvery == 0 && e.par.stopped() {
			return ErrInterrupted
		}
		switch e.s.cols[j].kind {
		case colArtificial:
			e.ban(j)
		case colStruct:
			if e.banned[j] {
				continue // fixed at 0: it takes no row
			}
			for _, en := range e.cols[j] {
				if held(en.row) {
					f.colCnt[j]++
					f.start[en.row+1]++
				}
			}
		}
	}
	for r := 0; r < m; r++ {
		f.start[r+1] += f.start[r]
	}
	f.byRow, f.rowCnt = filled(f.byRow, f.start[m], 0), filled(f.rowCnt, m, 0)
	q := f.queue[:0]
	for j, c := range f.colCnt {
		if j%pollEvery == 0 && e.par.stopped() {
			return ErrInterrupted
		}
		if c == 0 {
			continue
		}
		for _, en := range e.cols[j] {
			if held(en.row) {
				f.byRow[f.start[en.row]+f.rowCnt[en.row]] = j
				f.rowCnt[en.row]++
			}
		}
		q = append(q, j)
	}
	placed := 0
	for h := 0; h < len(q); h++ {
		j := q[h]
		if f.colCnt[j] != 1 {
			continue // placed already, or its one held row went to another column
		}
		r := -1
		for _, en := range e.cols[j] {
			if held(en.row) {
				r = en.row
				break
			}
		}
		e.basis[r] = j
		placed++
		for _, c := range f.byRow[f.start[r]:f.start[r+1]] {
			if f.colCnt[c]--; f.colCnt[c] == 1 {
				q = append(q, c)
			}
		}
	}
	f.queue = q
	if placed == 0 {
		return nil // the identity basis is already factored: no etas
	}
	return e.reinvert()
}

// checkBasis installs colIdx as the basis under the form's costs and
// reports why it is not an optimal basis of the LP: "" when it is,
// with no pivot taken.
//
// Artificials exist only as padding for rows the basis does not cover
// (redundant rows, leftover degenerate artificials), and are banned.
// A banned column basic at 0 keeps its row an equality (see ratioTest);
// one at a nonzero value means the basis solves a relaxation of the LP.
func (e *engine[T]) checkBasis(colIdx []int) string {
	for j := range e.s.cols {
		if e.s.cols[j].kind == colArtificial {
			e.ban(j)
		}
	}
	if err := e.installBasis(colIdx); err != nil {
		return fallbackSingularInstall
	}
	e.recomputeXB()
	e.setObjective(false)
	if !e.primalFeasible() || !e.dualFeasible() {
		return fallbackNotOptimal
	}
	for i, bj := range e.basis {
		if e.banned[bj] && e.k.sign(e.xB[i]) != 0 {
			return fallbackNotOptimal
		}
	}
	return ""
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
		w, nz := e.colFtran(enter)
		leave := e.ratioTest(w, nz)
		if leave < 0 {
			return errUnbounded
		}
		if e.info.Pivots >= e.par.budget {
			return ErrIterationLimit
		}
		if err := e.pivot(leave, enter, w, nz); err != nil {
			return err
		}
	}
}

// price selects the entering column: -1 at optimality, otherwise per
// Dantzig's rule or — when the caller asked for it or the degeneracy
// fallback engaged — Bland's rule. Dantzig's argmax compares with the
// kernel's cmp, so a later column must beat the best so far by more
// than the float tolerance: a tie the rationals see exactly goes to the
// smaller index in both kernels (see pricingDantzig).
func (e *engine[T]) price() int {
	e.computeY()
	bland := e.blandOn || e.par.pricing == pricingBland
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
		if enter < 0 || e.k.cmp(d, best) > 0 {
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
// among zero rows matters. nz lists w's nonzero rows, ascending.
//
// A banned artificial basic at 0 is a zero-ratio row whatever the sign
// of w_i: it never grows, so its row holds as an equality. It leaves
// for good once it leaves, so there are at most as many such pivots as
// artificials, and Bland's argument covers the walk between them. This
// is what lets a crash start and a certificate padded with artificials
// skip phase 1.
func (e *engine[T]) ratioTest(w []T, nz []int) int {
	leave := -1
	bestZero := false
	var best T
	for _, i := range nz {
		sw := e.k.sign(w[i])
		if sw == 0 || sw < 0 && !e.banned[e.basis[i]] {
			continue
		}
		if e.k.sign(e.xB[i]) == 0 {
			if !bestZero || e.basis[i] < e.basis[leave] {
				leave, bestZero = i, true
			}
			continue
		}
		if sw < 0 || bestZero {
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
// direction is w (nonzero on rows nz). It updates the basic values,
// appends the eta factor, and maintains the degeneracy/fallback and
// refactorization state — unless the solve has been interrupted: every
// pivot of every loop comes through here, so this is where both engines
// poll.
func (e *engine[T]) pivot(r, enter int, w []T, nz []int) error {
	if e.par.stopped() {
		return ErrInterrupted
	}
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
		// unchanged. The paper's LPs have all-zero equality rows, so
		// the walk from the crash basis starts degenerate, and an
		// artificial leaving at 0 is degenerate too.
		var zero T
		e.xB[r] = zero
	} else {
		e.k.step(e.xB, r, theta, w, nz)
	}
	e.pushEta(r, w, nz)
	e.inB[e.basis[r]] = false
	e.basis[r] = enter
	e.inB[enter] = true
	e.yFresh = false
	e.info.Pivots++
	if e.par.afterPivot != nil {
		e.par.afterPivot()
	}
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
			e.ban(j)
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
			w, nz := e.colFtran(j)
			if !e.k.pivotOK(w[i]) {
				continue
			}
			if err := e.pivot(i, j, w, nz); err != nil {
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
	clear(e.w)
	e.w, e.wnz = e.w[:len(e.b)], e.wnz[:0]
	return e.reinvert()
}

// --- basis factorization ---------------------------------------------

// peel is installBasis's scratch. It lives on the engine so that a
// refactorization allocates nothing once the first has sized it.
type peel struct {
	cols   []int // the basis columns, ascending
	rowOf  []int // position in cols -> pivot row, -1 while unplaced
	rowCnt []int // row -> unplaced columns with an entry on it
	colCnt []int // position in cols -> unassigned rows among its entries
	start  []int // row -> start of its stretch of byRow (m+1 of them)
	byRow  []int // positions in cols, grouped by row
	queue  []int // singletons found and not yet placed
	back   []int // column singletons (positions in cols), as discovered

	nucleus int // columns the last install had to FTRAN
}

// installBasis factors the given columns as the basis, padding rows
// they do not cover with the row's own logical column. Which row a
// column lands on is the factorization's business, so callers must
// recomputeXB and nothing may read a row position as a fact about the
// basis. The factorization depends on the set of columns only, not on
// the order colIdx lists them in.
//
// A platform LP's basis is a network basis: all but a handful of its
// columns fall into a triangle once rows and columns are permuted. The
// install finds that triangle first and FTRANs only what is left:
//
//   - front: a row on which exactly one unplaced column has an entry
//     takes that column. Every column placed after it is zero on that
//     row, so the factor never fires for them.
//   - back: a column with exactly one entry on an unassigned row takes
//     that row, and its factor goes to the end of the file, the latest
//     found first: its other entries sit on rows taken by back columns
//     found before it, whose factors must come after.
//   - nucleus: what neither peel reaches, shortest column first, each
//     FTRANed through the factors so far and given the kernel's pick
//     among the rows still free.
//
// A front or back column is zero on every row pivoted ahead of it, so
// the FTRAN would hand it back unchanged and its factor is the column
// itself scaled by its pivot — for a +1 unit column the identity, which
// pushEta does not store: the slacks that make up most of a basis cost
// nothing here or in any later FTRAN or BTRAN.
//
// Rows are peeled only when the hint is square. A short hint (a float
// basis with its artificials stripped) leaves rows to
// padding, and which ones is part of the basis: elimination taking, for
// each column, the first free row it is nonzero on leaves the same rows
// whatever order the columns come in, and a back column has a single
// free row to take, so peeling it is one such order. A row singleton's
// column may be nonzero on an earlier free row too, and taking it on
// the later one would pad a different row.
func (e *engine[T]) installBasis(colIdx []int) error {
	e.info.Refactorizations++
	e.sinceRefactor, e.yFresh = 0, false
	e.etas, e.pool = e.etas[:0], e.pool[:0]
	m := len(e.b)
	f := &e.peel

	clear(e.inB)
	for _, j := range colIdx {
		if e.inB[j] {
			return errSingular
		}
		e.inB[j] = true
	}
	f.cols = slices.Grow(f.cols[:0], m)
	for j, in := range e.inB {
		if in {
			f.cols = append(f.cols, j)
		}
	}
	k := len(f.cols)

	// Row lists of the basis: byRow[start[r]:start[r+1]] are the columns
	// with an entry on row r.
	e.basis = filled(e.basis, m, -1)
	f.rowOf = filled(f.rowOf, k, -1)
	f.rowCnt = filled(f.rowCnt, m, 0)
	f.start = filled(f.start, m+1, 0)
	f.colCnt = filled(f.colCnt, k, 0)
	for p, j := range f.cols {
		for _, en := range e.cols[j] {
			f.start[en.row+1]++
		}
		f.colCnt[p] = len(e.cols[j])
	}
	for r := 0; r < m; r++ {
		f.start[r+1] += f.start[r]
	}
	f.byRow = filled(f.byRow, f.start[m], 0)
	for p, j := range f.cols {
		for _, en := range e.cols[j] {
			f.byRow[f.start[en.row]+f.rowCnt[en.row]] = p
			f.rowCnt[en.row]++
		}
	}

	f.queue, f.back = slices.Grow(f.queue[:0], m), slices.Grow(f.back[:0], m)
	if k == m {
		if err := e.peelRows(); err != nil {
			return err
		}
	}
	back := e.peelColumns()

	nucleus := f.queue[:0]
	for p, r := range f.rowOf {
		if r < 0 {
			nucleus = append(nucleus, p)
		}
	}
	slices.SortStableFunc(nucleus, func(a, b int) int {
		return cmp.Compare(len(e.cols[f.cols[a]]), len(e.cols[f.cols[b]]))
	})
	f.nucleus = len(nucleus)
	for _, p := range nucleus {
		if e.par.stopped() { // a column's FTRAN through every factor so far
			return ErrInterrupted
		}
		w, nz := e.colFtran(f.cols[p])
		r := e.k.pickRow(w, nz, e.basis)
		if r < 0 {
			return errSingular
		}
		e.basis[r] = f.cols[p]
		e.pushEta(r, w, nz)
	}
	for h := len(back) - 1; h >= 0; h-- {
		if h%pollEvery == 0 && e.par.stopped() {
			return ErrInterrupted
		}
		if err := e.pushColumn(f.cols[back[h]], f.rowOf[back[h]]); err != nil {
			return err
		}
	}

	if k < m {
		pad := e.s.identityBasis(f.queue) // the nucleus it held is placed
		for r, j := range e.basis {
			if j >= 0 {
				continue
			}
			j = pad[e.rows[r]]
			if e.inB[j] {
				return errSingular
			}
			e.inB[j], e.basis[r] = true, j
			if err := e.pushColumn(j, r); err != nil {
				return err
			}
		}
	}
	return nil
}

// peelRows places, for as long as there is one, the only unplaced
// column with an entry on some free row on that row, and stores its
// factor: the front of the triangle.
func (e *engine[T]) peelRows() error {
	f := &e.peel
	q := f.queue
	for r, n := range f.rowCnt {
		if n == 1 {
			q = append(q, r)
		}
	}
	for h := 0; h < len(q); h++ {
		if h%pollEvery == 0 && e.par.stopped() {
			return ErrInterrupted
		}
		r := q[h]
		if f.rowCnt[r] != 1 {
			continue // its one column went to another row: singular, caught by the nucleus
		}
		p := -1
		for _, c := range f.byRow[f.start[r]:f.start[r+1]] {
			if f.rowOf[c] < 0 {
				p = c
				break
			}
		}
		j := f.cols[p]
		f.rowOf[p], e.basis[r] = r, j
		if err := e.pushColumn(j, r); err != nil {
			return err
		}
		for _, en := range e.cols[j] {
			if e.basis[en.row] < 0 {
				if f.rowCnt[en.row]--; f.rowCnt[en.row] == 1 {
					q = append(q, en.row)
				}
			}
		}
	}
	return nil
}

// peelColumns places, for as long as there is one, an unplaced column
// with a single entry on a free row on that row, and returns them
// (positions in cols) in the order found: the back of the triangle,
// whose factors the caller stores last, in reverse. No unplaced column
// has an entry on a row peelRows took, so colCnt counts free rows.
func (e *engine[T]) peelColumns() []int {
	f := &e.peel
	q, back := f.queue, f.back
	for p, n := range f.colCnt {
		if n == 1 && f.rowOf[p] < 0 {
			q = append(q, p)
		}
	}
	for h := 0; h < len(q); h++ {
		p := q[h]
		if f.colCnt[p] != 1 {
			continue // its one row went to another column: singular, caught by the nucleus
		}
		r := -1
		for _, en := range e.cols[f.cols[p]] {
			if e.basis[en.row] < 0 {
				r = en.row
				break
			}
		}
		f.rowOf[p], e.basis[r] = r, f.cols[p]
		back = append(back, p)
		for _, c := range f.byRow[f.start[r]:f.start[r+1]] {
			if f.rowOf[c] < 0 {
				if f.colCnt[c]--; f.colCnt[c] == 1 {
					q = append(q, c)
				}
			}
		}
	}
	return back
}

// pushColumn stores the factor of a triangular column j on row r: no
// factor ahead of it pivots on a row where it is nonzero, so there is
// nothing to FTRAN.
func (e *engine[T]) pushColumn(j, r int) error {
	w, nz := e.scatter(j)
	if !e.k.pivotOK(w[r]) {
		return errSingular
	}
	e.pushEta(r, w, nz)
	return nil
}

// filled returns buf resized to n with every element v.
func filled(buf []int, n, v int) []int {
	buf = slices.Grow(buf[:0], n)[:n]
	for i := range buf {
		buf[i] = v
	}
	return buf
}

// pushEta appends the factor of a column whose FTRANed form is w
// (nonzero on rows nz) pivoting on row r. The identity — a column that
// is 1 on its pivot row and zero elsewhere — is not stored: neither
// kernel can tell, the rational values are the same and a stored
// identity would only ever multiply a float64 by 1.0.
func (e *engine[T]) pushEta(r int, w []T, nz []int) {
	if len(nz) == 1 && !e.k.less(w[r], e.one) && !e.k.less(e.one, w[r]) {
		return
	}
	// The entries come out of the pool: a block per factor is an
	// allocation per pivot and per installed column. A full block is
	// left to the factors carved from it and replaced by a larger one.
	n := len(e.pool)
	if n+len(nz) > cap(e.pool) {
		e.pool, n = make([]entry[T], 0, max(2*cap(e.pool), len(nz), len(e.b))), 0
	}
	E := e.k.newEta(r, w, nz, e.pool[n:n:cap(e.pool)])
	e.pool = e.pool[:n+len(E.nz)]
	e.etas = append(e.etas, E)
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

// zeroed returns buf resized to n with every element zero.
func zeroed[E any](buf []E, n int) []E {
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf)
	return buf
}

// scatter returns column j in the engine's shared scratch vector with
// the rows it is nonzero on (both valid until the next scatter or
// colFtran; an eta copies what it keeps).
func (e *engine[T]) scatter(j int) ([]T, []int) {
	var zero T
	for _, i := range e.wnz {
		e.w[i] = zero
	}
	e.wnz = e.wnz[:0]
	for _, en := range e.cols[j] {
		e.w[en.row] = en.v
		e.wnz = append(e.wnz, en.row)
	}
	return e.w, e.wnz
}

// colFtran returns B^-1 a_j and its nonzero rows, ascending, in the
// same scratch.
func (e *engine[T]) colFtran(j int) ([]T, []int) {
	w, _ := e.scatter(j)
	e.k.ftran(e.etas, w)
	e.wnz = e.k.nonzeros(w, e.wnz[:0])
	return w, e.wnz
}

// unitBtran returns e_r B^-1 (row r of the basis inverse) in a
// second shared scratch vector, independent of colFtran's.
func (e *engine[T]) unitBtran(r int) []T {
	e.rho = zeroed(e.rho, len(e.b))
	e.rho[r] = e.one
	e.k.btran(e.etas, e.rho)
	return e.rho
}

// --- pricing helpers -------------------------------------------------

// computeY makes the simplex multipliers y = c_B B^-1 current. It
// BTRANs only when they are stale: solution() reads the ones the last
// price or checkBasis's dual-feasibility check computed.
func (e *engine[T]) computeY() {
	if e.yFresh {
		return
	}
	e.y = zeroed(e.y, len(e.b))
	for i, bj := range e.basis {
		e.y[i] = e.c[bj]
	}
	e.k.btran(e.etas, e.y)
	e.yFresh = true
}

// reducedCost returns d_j = c_j - y . a_j for the current multipliers.
func (e *engine[T]) reducedCost(j int) T {
	return e.k.reducedCost(e.c[j], e.cols[j], e.y)
}

// setObjective installs the costs the walk maximizes: the form's own
// (Session.SetObjective sets them), or in phase 1 -(sum of
// artificials).
func (e *engine[T]) setObjective(phase1 bool) {
	var zero T
	minusOne := e.k.conv(rat.FromInt(-1))
	e.yFresh = false
	for j := range e.c {
		switch c := &e.s.cols[j]; {
		case !phase1:
			e.c[j] = e.k.conv(c.cost)
		case c.kind == colArtificial:
			e.c[j] = minusOne
		default:
			e.c[j] = zero
		}
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

// solution renders the exact engine's final state as a Solution: for
// Optimal, primal values from the basic variables and the basic
// columns.
func solution(e *engine[rat.Rat], status Status) *Solution {
	m := e.s.m
	if status != Optimal {
		return &Solution{Status: status, Info: e.info}
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
	return &Solution{
		Status:    Optimal,
		Objective: m.ObjectiveAt(values),
		Info:      e.info,
		values:    values,
		basis:     basicColumns(e),
	}
}

// basicColumns lists the exact engine's final basis as the form's
// column indices, ascending, with the artificial of every row phase 1
// dropped: installed again on the form, that set is square, and it is
// the engine's basis on the rows it kept — the artificials sit at 0 at
// cost 0, so the multipliers come out the same (Model.Duals). Which row
// position a column holds is the factorization's business, and one
// basis must list the same columns however it was factored. inB is
// indexed by column, so walking it is that order with no sort.
func basicColumns(e *engine[rat.Rat]) []int {
	out := make([]int, 0, len(e.s.rows))
	dropped := len(e.rows) < len(e.s.rows)
	for j, in := range e.inB {
		if c := &e.s.cols[j]; in || dropped && c.kind == colArtificial && !slices.Contains(e.rows, c.row) {
			out = append(out, j)
		}
	}
	return out
}

// duals reads the multipliers of an exact engine's basis off its
// phase-2 costs, one per constraint in the sign convention of its row.
// A row phase 1 dropped has multiplier 0.
func duals(e *engine[rat.Rat]) []rat.Rat {
	m := e.s.m
	e.computeY()
	out := make([]rat.Rat, m.NumCons())
	for i, ri := range e.rows {
		r := &e.s.rows[ri]
		if r.conIdx < 0 {
			continue
		}
		y := e.y[i]
		if r.flipped != (m.sense == Minimize) {
			y = y.Neg()
		}
		out[r.conIdx] = y
	}
	return out
}
