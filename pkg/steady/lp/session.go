package lp

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/pkg/steady/obs"
	"repro/pkg/steady/rat"
)

// Session is one solve of a model, held open: its standardized form,
// the float engine that searches it and the exact engine that certifies
// it. SolveOpts is Begin, Optimize, Certify and Close. Between two
// Optimizes a caller may add a column (AddColumn): it edits the model
// and the form, and the next search walks on from the basis the last
// one left — the new column enters nonbasic at 0, so the start is
// primal feasible. There is no AddRow: a row would break that. Certify
// returns an optimum of the model as it then stands.
//
// Float64 proposes, rationals dispose:
//
//  1. search (Optimize): the simplex runs in engine[float64] over float
//     copies of the form, from the crash basis when every GE and EQ row
//     has right-hand side 0 (the paper's LPs) and through phase 1
//     otherwise — the branch the exact walk takes, read off the exact b;
//  2. install (Certify): the final basis, less its artificials, is
//     factored over exact rationals on the same form;
//  3. check: it is accepted iff it is exactly primal and dual feasible
//     and no banned column — an artificial padding a row — sits basic
//     at a nonzero value: an optimum, with no pivot taken;
//  4. walk: when the search failed, the install is singular or the check
//     refuses the basis, the exact two-phase walk solves the form
//     instead (SolveInfo.CertifiedCold).
//
// No float reaches the caller, so the search can cost time, never
// correctness. It is cheap because both engines are one engine: under
// the same pricing rule the float walk makes the exact walk's
// decisions, ends on its basis, and step 3 accepts it as installed.
//
// Sessions come out of a pool with the storage an earlier one grew.
// Close hands one back detached from its model, with every rational of
// its form and exact engine cleared; its float engine holds float64s,
// ints and bools, and no float reaches a Solution. An interrupted
// session hands nothing back: clearing is up to a millisecond at n=64
// past the deadline, so the collector takes it. A session is one
// goroutine's, its model must change only through it, and it must not
// be used after Close.
type Session struct {
	m     *Model
	s     stdForm
	fe    engine[float64]
	re    engine[rat.Rat] // the certificate's, and the exact walk's
	par   params
	reg   *obs.Registry
	exact bool // Options.exactWalk: no search, and Certify walks
	// found: the last search ended on an optimum, for Certify to
	// install; live: and the float engine still spans every row of the
	// form, so the next search walks on from it.
	found, live bool
}

var sessions = sync.Pool{New: func() any {
	return &Session{fe: engine[float64]{k: floatKernel{}}, re: engine[rat.Rat]{k: ratKernel{}}}
}}

// Solve runs the simplex with the default options and returns an exact
// rational optimum (or Infeasible/Unbounded status).
func (m *Model) Solve() (*Solution, error) { return m.SolveOpts(nil) }

// SolveOpts runs the simplex under explicit options: one session,
// searched once and certified. A nil opts is Solve.
func (m *Model) SolveOpts(opts *Options) (sol *Solution, err error) {
	if reg := obsOf(opts); reg != nil {
		span := reg.StartSpan("lp_solve")
		defer func() {
			span.End()
			flushSolveMetrics(opts, sol, err)
		}()
	}
	x, err := m.Begin(opts)
	if err != nil {
		return nil, err
	}
	defer x.Close()
	if err = x.Optimize(); err != nil {
		return nil, err
	}
	return x.Certify()
}

// Begin standardizes m and opens a session on it under opts (nil: the
// defaults). It fails only with ErrInterrupted, once opts.Interrupt is
// closed.
func (m *Model) Begin(opts *Options) (*Session, error) {
	var stop <-chan struct{}
	if opts != nil {
		stop = opts.Interrupt
	}
	x := sessions.Get().(*Session)
	if !m.standardize(&x.s, stop) {
		return nil, ErrInterrupted // the form is partial: the collector takes it
	}
	x.m, x.reg = m, obsOf(opts)
	x.par = m.resolveParams(opts, len(x.s.rows), len(x.s.cols))
	x.exact = opts != nil && opts.exactWalk
	x.found, x.live = false, false
	x.fe.info = SolveInfo{}
	return x, nil
}

// AddColumn declares a non-negative variable with objective
// coefficient obj and the given entries, which name distinct
// constraints with nonzero coefficients, and returns it. Its column
// enters the form nonbasic at 0. It has no upper bound (a bound is a
// row), and it is refused where it would lift one: a negative entry on
// a row the form lets stand for a bound (see Model).
func (x *Session) AddColumn(obj rat.Rat, entries []Entry) (Var, error) {
	m := x.m
	for i, en := range entries {
		switch {
		case en.Con < 0 || en.Con >= len(m.cons) || en.Coef.IsZero() || slices.ContainsFunc(entries[:i], func(e Entry) bool { return e.Con == en.Con }):
			return -1, fmt.Errorf("lp: column entry %d (constraint %d of %d, coefficient %v) is not a nonzero entry on a constraint of its own", i, en.Con, len(m.cons), en.Coef)
		case en.Coef.Sign() < 0 && x.s.rows[en.Con].implies:
			return -1, fmt.Errorf("lp: a negative entry on constraint %d (%s) would lift the upper bound it stands for", en.Con, m.rowName(en.Con))
		}
	}
	v := m.Var("")
	m.late = max(m.late, 1)
	m.ObjCoef(v, obj)
	c := column{kind: colStruct, vr: v}
	c.cost = m.costOf(&c)
	j := x.s.appendColumn(c, len(entries))
	for _, en := range entries {
		// The model's terms of a constraint are one stretch of its block:
		// one that does not end the block moves to its end to take v.
		r := &m.cons[en.Con]
		if r.to != len(m.terms) {
			from := len(m.terms)
			m.terms = append(m.terms, m.terms[r.from:r.to]...)
			r.from, r.to = from, len(m.terms)
		}
		m.terms, r.to = append(m.terms, Term{v, en.Coef}), r.to+1
		if x.s.rows[en.Con].flipped {
			en.Coef = en.Coef.Neg()
		}
		x.s.cols[j].nz = append(x.s.cols[j].nz, entry[rat.Rat]{row: en.Con, v: en.Coef})
	}
	if x.live {
		x.fe.addColumn()
	}
	return v, nil
}

// Optimize runs the float search: on from the basis the last search
// ended on when it was an optimum, and from the start otherwise. A
// search that fails is Certify's to answer; Optimize fails only with
// ErrInterrupted.
func (x *Session) Optimize() error {
	fe := &x.fe
	if !x.exact && (x.live || fe.reset(&x.s, x.par)) {
		sp := x.reg.StartSpan("lp_float_search")
		var status Status
		var err error
		if x.live {
			status, err = fe.phase2(nil)
		} else {
			status, err = fe.twoPhase(nil)
		}
		sp.End()
		x.found = err == nil && status == Optimal
		x.live = x.found && len(fe.rows) == len(x.s.rows)
	}
	// The search gives up on a closed channel as on a numerical failure,
	// and only the channel can tell the two apart.
	if x.par.stopped() {
		return ErrInterrupted
	}
	return nil
}

// Certify returns the exact optimum of the model as it stands: the last
// search's basis installed and checked, or the exact two-phase walk
// from the start when that is refused.
func (x *Session) Certify() (*Solution, error) {
	if x.par.stopped() {
		return nil, ErrInterrupted
	}
	if x.exact {
		return x.walk()
	}
	why := fallbackSearchStatus
	if x.found {
		// Artificials stay out: the install pads the rows they held.
		fe := &x.fe
		fe.hint = fe.hint[:0]
		for _, j := range fe.basis {
			if x.s.cols[j].kind != colArtificial {
				fe.hint = append(fe.hint, j)
			}
		}
		var sol *Solution
		if sol, why = x.check(fe.hint); sol != nil {
			sol.Info.FloatPivots = fe.info.Pivots
			return sol, nil
		}
		if x.par.stopped() {
			return nil, ErrInterrupted // the install was stopped, not defeated
		}
	}
	sol, err := x.walk()
	if err != nil {
		return nil, err
	}
	sol.Info.FloatPivots = x.fe.info.Pivots
	x.reg.CounterVec(metricFallbackWhy, helpFallbackWhy, "reason").With(why).Inc()
	return sol, nil
}

// check installs hint over rationals and checks it: the one certificate
// of a float search. nil means it was refused, for the reason why.
func (x *Session) check(hint []int) (*Solution, string) {
	sp := x.reg.StartSpan("lp_certify")
	defer sp.End()
	if !x.re.reset(&x.s, x.par) {
		return nil, fallbackSingularInstall // stopped: Certify answers ErrInterrupted
	}
	if why := x.re.checkBasis(hint); why != "" {
		return nil, why
	}
	return solution(&x.re, Optimal), ""
}

// walk runs the exact two-phase simplex from the all-logical starting
// basis: the fallback of a search the certificate could not accept,
// and so CertifiedCold.
func (x *Session) walk() (*Solution, error) {
	if !x.re.reset(&x.s, x.par) {
		return nil, ErrInterrupted
	}
	status, err := x.re.twoPhase(x.reg)
	if err != nil {
		return nil, err
	}
	sol := solution(&x.re, status)
	sol.Info.CertifiedCold = true
	return sol, nil
}

// Close hands the session back to the pool, unless it was interrupted.
func (x *Session) Close() {
	if x.par.stopped() {
		return
	}
	x.s.release()
	x.re.scrub()
	x.fe.s, x.fe.par = nil, params{} // the pool must not pin a model or a caller's channel
	x.m, x.par, x.reg = nil, params{}, nil
	sessions.Put(x)
}

// Duals returns the dual multipliers of sol, an optimum of m: one per
// constraint, in the order they were added, read off the basis sol
// keeps by one exact install and one BTRAN. Their sign convention is
// that of a row's own operator, as CheckOptimal takes them; a bound's
// multiplier is not among them.
func (m *Model) Duals(sol *Solution) ([]rat.Rat, error) {
	if sol.Status != Optimal {
		return nil, errors.New("lp: duals of a solve that found no optimum")
	}
	x, _ := m.Begin(nil) // nothing to interrupt it
	defer x.Close()
	x.re.reset(&x.s, x.par)
	if basis := columns(sol.basis); slices.ContainsFunc(basis, func(j int) bool { return j >= len(x.s.cols) }) || x.re.installBasis(basis) != nil {
		return nil, errors.New("lp: the solution's basis is no basis of this model")
	}
	x.re.setObjective(false)
	return duals(&x.re), nil
}
