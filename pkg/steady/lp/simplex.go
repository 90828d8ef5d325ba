package lp

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

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
	errUnbounded   = errors.New("lp: unbounded")
	errSingular    = errors.New("lp: singular basis")
	errDualNoPivot = errors.New("lp: dual simplex found no entering column")
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
	rho    []T // scratch: BTRANed unit row (dual pricing)
	// scratch: the FTRANed column, zero outside the ascending rows wnz —
	// what reads or clears it walks that list, not all m rows.
	w    []T
	wnz  []int
	peel peel // scratch: installBasis's counters, queues and row lists
	// hint (float engine): scratch for the basic columns certify hands
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

// Solve runs the simplex with the default options and returns an exact
// rational optimum (or Infeasible/Unbounded status).
func (m *Model) Solve() (*Solution, error) { return m.SolveOpts(nil) }

// SolveOpts runs the simplex under explicit options. A nil opts is
// Solve.
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

// solveDispatch standardizes the model once and runs every solve's one
// pipeline on that form: float64 proposes, rationals dispose.
//
//  1. search: the simplex runs in engine[float64] over float copies of
//     the standardized model: from the crash basis when every GE and EQ
//     row has right-hand side 0 (the paper's LPs) and through phase 1
//     otherwise — the same branch the exact walk takes, read off the
//     exact b;
//  2. hand over: only its final basis is kept, as the form's column
//     indices less any artificial;
//  3. install: the basis is factored over exact rationals, on the
//     same stdForm the search ran on;
//  4. certify: primal and dual feasibility are checked exactly;
//  5. repair: disagreements cost exact primal/dual pivots
//     (SolveInfo.RepairPivots), at most 32 + rows of them;
//  6. fallback: when the search fails (cycling, numerically singular
//     basis, a status other than Optimal), the install is singular or
//     the budget runs out, the float work is dropped and the model is
//     solved by the exact two-phase walk (SolveInfo.CertifiedCold).
//
// No float reaches the caller, so the search can cost time, never
// correctness. It is cheap because both engines are one engine: under
// the same pricing rule the float walk makes the exact walk's
// decisions, ends on its basis, and steps 4–5 find nothing to repair.
//
// A stage that gives up sends the solve on to the next one; a stage
// that was stopped must not, and what it returns cannot tell the two
// apart. The channel can: closed, it stays closed, so every hand-over
// asks it first.
func (m *Model) solveDispatch(opts *Options) (*Solution, error) {
	var stop <-chan struct{}
	if opts != nil {
		stop = opts.Interrupt
	}
	s := m.standardize(stop)
	if s == nil {
		return nil, ErrInterrupted
	}
	defer func() { // after every engine that reads s has gone back; see putRatEngine
		if !closed(stop) {
			putForm(s)
		}
	}()
	par := m.resolveParams(opts, len(s.rows), len(s.cols))
	reg := obsOf(opts)
	fe := floatEngines.Get().(*engine[float64])
	fe.reset(s, par)
	defer func() {
		fe.s, fe.par = nil, params{} // the pool must not pin a model or a caller's channel
		floatEngines.Put(fe)
	}()
	if par.stopped() {
		return nil, ErrInterrupted // and fe's load may be partial
	}
	if opts != nil && opts.exactWalk {
		return solveCold(s, par, reg)
	}

	fsp := reg.StartSpan("lp_float_search")
	fstatus, ferr := fe.twoPhase(nil)
	fsp.End()
	// A float status other than Optimal (or a numerical failure) is
	// never trusted: Infeasible/Unbounded must be re-derived exactly.
	why := fallbackSearchStatus
	if ferr == nil && fstatus == Optimal {
		var sol *Solution
		if sol, why = certify(s, fe, par, opts, reg); sol != nil {
			return sol, nil
		}
	}
	if par.stopped() {
		return nil, ErrInterrupted // the search or the repair was stopped, not defeated
	}
	sol, err := solveCold(s, par, reg)
	if err != nil {
		return nil, err
	}
	sol.Info.FloatPivots = fe.info.Pivots
	reg.CounterVec(metricFallbackWhy, helpFallbackWhy, "reason").With(why).Inc()
	return sol, nil
}

// certify installs the float engine's final basis over rationals and
// repairs it under the repair budget, at most 32 + rows exact pivots:
// the one certificate of a float search. nil means it was refused, for
// the reason why.
func certify(s *stdForm, fe *engine[float64], par params, opts *Options, reg *obs.Registry) (*Solution, string) {
	sp := reg.StartSpan("lp_certify")
	defer sp.End()
	par.budget = resolveRepairBudget(opts, len(s.rows))
	// Artificials stay out: the install pads the rows they held.
	fe.hint = fe.hint[:0]
	for _, j := range fe.basis {
		if s.cols[j].kind != colArtificial {
			fe.hint = append(fe.hint, j)
		}
	}
	sol, why := solveFromBasis(s, fe.hint, par)
	if sol != nil {
		sol.Info.RepairPivots = sol.Info.Pivots
		sol.Info.FloatPivots = fe.info.Pivots
	}
	return sol, why
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
	// fallbackRepairBudget: the exact repair ran out of its pivots.
	fallbackRepairBudget = "repair_budget"
	// fallbackRepairRefused: the installed basis was no start for the
	// repair — neither primal nor dual feasible — or the repair ended
	// short of an optimum of the real LP (no dual pivot, a padding
	// artificial left nonzero, a singular pivot).
	fallbackRepairRefused = "repair_refused"
)

// The pools recycle the engines' workspaces across solves. Built per
// solve, an engine's vectors and eta pool grow from empty: for the float
// search 150 KB and a tenth of a master-slave cold miss at n=48 (sizing
// the eta pool up front costs more, one large make and memclr per
// solve). An engine is one stage's alone from Get to Put, and reset
// leaves of the previous solve nothing but capacity. A float engine
// detached from its form holds float64s, ints and bools, and no float
// reaches a Solution, so nothing of one solve can show in the next. An
// exact engine holds rationals, some of them *big.Rat, and slices of its
// form's columns: putRatEngine clears every one of them first, so the
// pool pins neither a number nor a model.
var (
	floatEngines = sync.Pool{New: func() any { return &engine[float64]{k: floatKernel{}} }}
	ratEngines   = sync.Pool{New: func() any { return &engine[rat.Rat]{k: ratKernel{}} }}
)

// ratEngine is an exact engine from the pool, reset onto s.
func ratEngine(s *stdForm, par params) *engine[rat.Rat] {
	e := ratEngines.Get().(*engine[rat.Rat])
	e.reset(s, par)
	return e
}

// putRatEngine scrubs e and returns it to the pool, unless its solve
// was interrupted: scrubbing an engine, like clearing a form, is up to a
// millisecond at n=64 past the deadline, so the collector takes both.
func putRatEngine(e *engine[rat.Rat]) {
	if e.par.stopped() {
		return
	}
	e.scrub()
	ratEngines.Put(e)
}

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
// the capacity of every buffer an earlier solve grew.
func (e *engine[T]) reset(s *stdForm, par params) {
	m, n := len(s.rows), len(s.cols)
	e.s, e.par, e.one = s, par, e.k.conv(rat.One())
	e.info, e.sinceRefactor, e.degen, e.blandOn, e.yFresh = SolveInfo{}, 0, 0, false, false
	e.nz, e.cols, e.b = e.k.load(s, e.nz, e.cols, e.b, par.interrupt)
	e.rows = filled(e.rows, m, 0)
	for i := range e.rows {
		e.rows[i] = i
	}
	e.inB, e.banned, e.c = zeroed(e.inB, n), zeroed(e.banned, n), zeroed(e.c, n)
	e.w, e.wnz = zeroed(e.w, m), e.wnz[:0]
	e.etas, e.pool, e.xB, e.basis = e.etas[:0], e.pool[:0], e.xB[:0], e.basis[:0]
}

// solveCold runs the exact two-phase simplex from the all-logical
// starting basis: the fallback of a float search that failed, and so
// CertifiedCold.
func solveCold(s *stdForm, par params, reg *obs.Registry) (*Solution, error) {
	e := ratEngine(s, par)
	defer putRatEngine(e)
	status, err := e.twoPhase(reg)
	if err != nil {
		return nil, err
	}
	sol := solution(e, status)
	sol.Info.CertifiedCold = true
	return sol, nil
}

// solveFromBasis is the exact solve from the given basic columns,
// certify's exact half: install them over rationals and reoptimize
// under par's budget. nil means the basis was no use, for the reason
// why, and the caller must solve cold.
func solveFromBasis(s *stdForm, colIdx []int, par params) (*Solution, string) {
	e := ratEngine(s, par)
	defer putRatEngine(e)
	status, why := e.reoptimize(colIdx)
	if why != "" {
		return nil, why
	}
	return solution(e, status), ""
}

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
			e.banned[j] = true
		case colStruct:
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

// startFrom installs colIdx as the basis under the phase-2 costs and
// judges it as a starting point: primal reports every basic value
// non-negative; why is "" when the basis is at least primal or dual
// feasible, else the fallback reason that refuses it.
func (e *engine[T]) startFrom(colIdx []int) (primal bool, why string) {
	// Artificials exist only as padding for rows the basis does not
	// cover (redundant rows, leftover degenerate artificials); they are
	// banned from entering throughout.
	for j := range e.s.cols {
		if e.s.cols[j].kind == colArtificial {
			e.banned[j] = true
		}
	}
	if err := e.installBasis(colIdx); err != nil {
		return false, fallbackSingularInstall
	}
	e.recomputeXB()
	e.setPhase2Costs()
	if e.primalFeasible() {
		return true, ""
	}
	if !e.dualFeasible() {
		return false, fallbackRepairRefused
	}
	return false, ""
}

// reoptimize starts from colIdx and reoptimizes: straight to primal
// phase 2 when the basis is primal feasible, dual simplex repair first
// when it is only dual feasible, rejection otherwise. why is "" on
// success, else the fallback reason that names the failure.
//
// Any reoptimization failure that is not a definitive status — pivot
// budget exhausted mid-repair, dual simplex out of entering columns —
// means the basis was a bad starting point, not that the LP is
// unsolvable: it is rejected and the exact two-phase walk makes the
// authoritative call.
// Unbounded is definitive only from a basis of real columns. A padding
// artificial is banned from entering, not from growing: while one is
// basic the pass works on the relaxation that turns its equality (or
// >=) row into an inequality, and a ray of that is no ray of the LP.
func (e *engine[T]) reoptimize(colIdx []int) (status Status, why string) {
	primal, why := e.startFrom(colIdx)
	if why != "" {
		return 0, why
	}
	if !primal {
		if err := e.dual(); err != nil {
			return 0, repairFailure(err)
		}
	}
	if err := e.primal(); err != nil { // after dual repair: usually 0 iterations
		if !errors.Is(err, errUnbounded) {
			return 0, repairFailure(err)
		}
		for _, bj := range e.basis {
			if e.s.cols[bj].kind == colArtificial {
				return 0, fallbackRepairRefused
			}
		}
		return Unbounded, ""
	}

	// A padding artificial that settled at a nonzero value means the
	// basis solves a restriction that is not the real LP.
	for i, bj := range e.basis {
		if e.s.cols[bj].kind == colArtificial && e.k.sign(e.xB[i]) != 0 {
			return 0, fallbackRepairRefused
		}
	}
	return Optimal, ""
}

// repairFailure is the fallback reason of a repair pass that returned
// err.
func repairFailure(err error) string {
	if errors.Is(err, ErrIterationLimit) {
		return fallbackRepairBudget
	}
	return fallbackRepairRefused
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
		w, nz := e.colFtran(enter)
		if err := e.pivot(r, enter, w, nz); err != nil {
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
// price computed, and a dual repair starts from those startFrom's
// dual-feasibility check computed.
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

// setPhase1Costs installs the feasibility objective -(sum of
// artificials).
func (e *engine[T]) setPhase1Costs() {
	minusOne := e.k.conv(rat.FromInt(-1))
	clear(e.c)
	e.yFresh = false
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
	e.yFresh = false
	for j := range e.c {
		col := &e.s.cols[j]
		if col.kind != colStruct {
			continue
		}
		c := e.s.m.objCoef(col.vr)
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
// phase-2 simplex multipliers, and the basic columns.
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
		basis:     basicColumns(e),
	}
}

// basicColumns lists the exact engine's final basis as the form's
// column indices less any artificial, ascending: which row position a
// column holds is the factorization's business, and one basis must list
// the same columns however it was factored. inB is indexed by column, so
// walking it is that order with no sort.
func basicColumns(e *engine[rat.Rat]) []int {
	out := make([]int, 0, len(e.basis))
	for j, in := range e.inB {
		if in && e.s.cols[j].kind != colArtificial {
			out = append(out, j)
		}
	}
	return out
}
