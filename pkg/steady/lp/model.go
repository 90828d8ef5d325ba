// Package lp implements the linear-programming engine of the
// steady-state scheduling stack: a model builder, a sparse revised
// simplex, and an exact duality
// certificate (Model.CheckOptimal) that proves an optimum without any
// of it.
//
// The steady-state framework of Beaumont et al. requires *rational*
// optima — the schedule period is the lcm of the solution's
// denominators. Every solve therefore takes one path, a Session: the
// simplex searches in float64 (Optimize), and its final basis is
// installed and checked over exact rationals (Certify). When the search
// fails or the check refuses the basis, the exact two-phase walk solves
// the model instead (SolveInfo.CertifiedCold). No float reaches a
// Solution. Between two searches a session may take a column, a new
// objective or a ban, and the next search walks on from the basis the
// last one left. The engine's design:
//
//   - constraints are stored column-wise and sparse; the node-edge
//     incidence LPs the paper produces have a handful of nonzeros per
//     column, and the solver's per-iteration cost follows that count,
//     not rows x columns;
//   - the basis is maintained in product form (a file of eta vectors
//     over exact rationals, periodically reinverted), so an iteration
//     is two sparse triangular passes (BTRAN/FTRAN) instead of a
//     dense tableau update;
//   - a cold solve runs phase 1 only when some GE or EQ row has a
//     nonzero right-hand side. The paper's equality rows are all
//     homogeneous (conservation, s_jm = 0, per-target flow), so the
//     origin is feasible: their artificials are banned where they sit,
//     basic at 0, structural columns that form a triangle on those rows
//     replace as many as they can (the crash basis), and phase 2 starts
//     there. The ratio test lets an artificial basic at 0 leave but
//     never grow;
//   - pricing is Dantzig's rule, the most positive reduced cost, with
//     Bland's smallest improving index after every degenerate pivot
//     until a pivot moves: it cannot cycle, and on the paper's
//     degenerate LPs it takes fewer pivots than Bland's rule alone. Every
//     walk of both instantiations enters by it, so the float search
//     makes the exact walk's decisions. No caller can select another
//     rule, nor the pivot budget, 200*(rows+cols+1);
//   - a solve stops when its caller closes Options.Interrupt: both
//     instantiations poll the channel before every pivot, and
//     standardize, the float load, the crash basis and a basis install
//     every block of rows or columns before the first; an interrupted
//     solve returns ErrInterrupted, never a Solution, and hands nothing
//     back to the pools;
//   - a solve is a function of its model alone: it starts from the
//     crash basis or phase 1, never from a basis another solve left,
//     so the §5.5 control plane's re-plan of an estimate is the same
//     solve, vertex and bytes as a first solve of it; only a session's
//     own searches continue one another;
//   - a solve works in recycled storage: a session — its standardized
//     form and its engine[float64] — comes out of a package-level pool
//     and goes back at Close, and the certificate's engine[rat.Rat]
//     comes out of one and goes back when the stage returns. Each goes
//     back detached from its model, and the form and the exact engine
//     with every rational they held cleared; in between it is its
//     solve's alone, and what the next solve finds is capacity. The
//     model's own storage is the caller's to recycle: Reset empties a
//     model whose Solution has been read, keeping its blocks for the
//     next build (internal/core's solve paths do).
//
// Build a Model with NewModel, declare variables with Var/VarRange
// (variables are non-negative by default; SetFree lifts that),
// constraints with Le/Ge/Eq, and call Solve (or SolveOpts)
// for an exact Solution. A model copies each constraint's terms into
// one block of its own, and names cost nothing until read: a builder
// can declare everything unnamed and pass NameBy the same build with
// names. CheckFeasible and CheckOptimal judge a point, and a point with
// its duals (Duals reads them off a Solution on demand), against the
// model's own rows — the reference the tests hold every solve to. See
// ExampleModel for a
// complete program. internal/core
// builds the paper's LPs directly on this package; applications
// should normally consume them through the pkg/steady facade instead.
package lp

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/pkg/steady/rat"
)

// Sense selects the optimization direction.
type Sense int

const (
	Maximize Sense = iota
	Minimize
)

// Op is a constraint comparison operator.
type Op int

const (
	LE Op = iota // <=
	GE           // >=
	EQ           // ==
)

func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return "?"
}

// Var identifies a decision variable within its Model.
type Var int

// Term is coefficient times variable.
type Term struct {
	Var  Var
	Coef rat.Rat
}

// Expr is a linear expression Σ coef·var.
type Expr []Term

// Plus appends a term and returns the extended expression.
func (e Expr) Plus(v Var, c rat.Rat) Expr { return append(e, Term{v, c}) }

// PlusInt appends a term with an integer coefficient.
func (e Expr) PlusInt(v Var, c int64) Expr { return e.Plus(v, rat.FromInt(c)) }

// constraint is expr op rhs, its terms in the model's block.
type constraint struct {
	name     string
	op       Op
	rhs      rat.Rat
	from, to int // terms[from:to] of the model
}

// variable is one decision variable: x >= 0 unless free, x <= upper
// when hasUp.
type variable struct {
	name  string
	upper rat.Rat
	free  bool
	hasUp bool
}

// Model is a linear program under construction. All variables are
// non-negative unless marked free. An upper bound x_v <= u_v becomes a
// row of the solver's form unless one constraint already enforces it: a
// row Σ a_j x_j <= b with b >= 0, no free variable, every a_j >= 0,
// a_v > 0 and b / a_v <= u_v, on which a_v x_v <= Σ a_j x_j <= b. The
// one-port rows Σ s <= 1 of the paper's LPs imply every s_e <= 1 this
// way; Σ s <= 2 implies none, and nothing implies an alpha_i <= 1. The
// model, WriteLP, CheckFeasible and CheckOptimal keep every bound.
//
// A constraint's terms are copied into one block the model owns, so a
// builder may reuse one Expr for every row it adds.
type Model struct {
	vars  []variable
	obj   []rat.Rat // dense: the coefficient of v is obj[v], 0 past the end
	sense Sense
	cons  []constraint
	terms []Term
	// late counts the trailing variables declared from the first
	// Session.AddColumn on: the form puts their columns after the
	// logical ones, where the session appended them.
	late int

	// namer builds the model whose names this one's unnamed variables and
	// rows take (see NameBy); twin is what it returned.
	namer func() *Model
	once  sync.Once
	twin  *Model
}

// NewModel returns an empty maximization model.
func NewModel() *Model { return &Model{} }

// Reset empties m, as NewModel would return it, and keeps the storage its
// variables, objective, rows and terms grew: a caller that builds a
// model, solves it and reads only the Solution can build the next one in
// it instead of in new blocks (a Solution holds nothing of its model).
// Nothing of the old model stays reachable — no name, no rational, no
// namer (NameBy) and no model a namer built. Reset only a model nothing
// reads again.
func (m *Model) Reset() {
	clear(m.vars)
	clear(m.obj)
	clear(m.cons)
	clear(m.terms)
	m.vars, m.obj, m.cons, m.terms = m.vars[:0], m.obj[:0], m.cons[:0], m.terms[:0]
	m.sense, m.late = Maximize, 0
	m.namer, m.twin = nil, nil
	m.once = sync.Once{}
}

// Var adds a non-negative variable and returns its handle.
func (m *Model) Var(name string) Var {
	if m.vars == nil {
		m.vars = make([]variable, 0, 64) // the paper's LPs start at dozens
	}
	m.vars = append(m.vars, variable{name: name})
	if m.late > 0 {
		m.late++
	}
	return Var(len(m.vars) - 1)
}

// VarRange adds a variable with 0 <= x <= up.
func (m *Model) VarRange(name string, up rat.Rat) Var {
	v := m.Var(name)
	m.SetUpper(v, up)
	return v
}

// SetUpper sets (or replaces) an upper bound x <= up.
func (m *Model) SetUpper(v Var, up rat.Rat) {
	m.vars[v].upper, m.vars[v].hasUp = up, true
}

// SetFree marks a variable as unrestricted in sign.
func (m *Model) SetFree(v Var) { m.vars[v].free = true }

// NameBy gives every variable and row declared with an empty name the
// name of the same variable or row of the model build returns. build
// runs once, the first time such a name is read — by Name, WriteLP or
// the error text of CheckFeasible or CheckOptimal — and never when
// nothing reads one: a builder declares everything unnamed, passes
// itself, naming, here, and a model that is only solved costs no
// string.
func (m *Model) NameBy(build func() *Model) { m.namer = build }

// namersRun counts the namers every model has run: a served solve reads
// no name, and the test that says so watches this.
var namersRun atomic.Int64

// named returns the namer's model, building it on the first call; nil
// when there is none.
func (m *Model) named() *Model {
	if m.namer == nil {
		return nil
	}
	m.once.Do(func() {
		namersRun.Add(1)
		m.twin = m.namer()
	})
	return m.twin
}

// Name returns the variable's name.
func (m *Model) Name(v Var) string {
	if name := m.vars[v].name; name != "" {
		return name
	}
	if tw := m.named(); tw != nil && int(v) < len(tw.vars) {
		return tw.vars[v].name
	}
	return ""
}

// rowName returns the name of constraint i.
func (m *Model) rowName(i int) string {
	if name := m.cons[i].name; name != "" {
		return name
	}
	if tw := m.named(); tw != nil && i < len(tw.cons) {
		return tw.cons[i].name
	}
	return ""
}

// NumVars returns the number of declared variables.
func (m *Model) NumVars() int { return len(m.vars) }

// NumCons returns the number of added constraints.
func (m *Model) NumCons() int { return len(m.cons) }

// Objective sets the objective sense and expression (replacing any
// previous objective).
func (m *Model) Objective(sense Sense, e Expr) {
	m.sense = sense
	m.obj = zeroed(m.obj, len(m.vars))
	for _, t := range e {
		m.ObjCoef(t.Var, t.Coef)
	}
}

// ObjCoef adds c to the objective coefficient of v.
func (m *Model) ObjCoef(v Var, c rat.Rat) {
	if int(v) >= len(m.obj) {
		m.obj = append(m.obj, make([]rat.Rat, len(m.vars)-len(m.obj))...)
	}
	m.obj[v] = m.obj[v].Add(c)
}

// objCoef returns the objective coefficient of v.
func (m *Model) objCoef(v Var) rat.Rat {
	if int(v) < len(m.obj) {
		return m.obj[v]
	}
	return rat.Zero()
}

// Constrain adds expr op rhs with a diagnostic name. The model keeps a
// copy of e's terms.
func (m *Model) Constrain(name string, e Expr, op Op, rhs rat.Rat) {
	if len(m.cons) == 0 {
		// Sized from the variables, which builders declare first: the
		// paper's LPs have one to two rows and two to four terms per
		// variable, and grown from empty each block is copied ten times.
		// A Reset model grows only what a smaller one left too short.
		m.cons = slices.Grow(m.cons, max(16, 2*len(m.vars)))
		m.terms = slices.Grow(m.terms, max(64, 4*len(m.vars)))
	}
	from := len(m.terms)
	m.terms = append(m.terms, e...)
	m.cons = append(m.cons, constraint{name: name, op: op, rhs: rhs, from: from, to: len(m.terms)})
}

// Entry is one coefficient of a column: Coef in constraint Con, the
// constraints numbered in the order they were added.
type Entry struct {
	Con  int
	Coef rat.Rat
}

// row returns the terms of constraint i.
func (m *Model) row(i int) Expr {
	c := &m.cons[i]
	return m.terms[c.from:c.to:c.to]
}

// Le adds expr <= rhs.
func (m *Model) Le(name string, e Expr, rhs rat.Rat) { m.Constrain(name, e, LE, rhs) }

// Ge adds expr >= rhs.
func (m *Model) Ge(name string, e Expr, rhs rat.Rat) { m.Constrain(name, e, GE, rhs) }

// Eq adds expr == rhs.
func (m *Model) Eq(name string, e Expr, rhs rat.Rat) { m.Constrain(name, e, EQ, rhs) }

// Status describes the outcome of a solve.
type Status int

const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return "unknown"
}

// SolveInfo reports how a solve went: how many pivots each phase
// took, whether the anti-cycling fallback engaged, and whether the
// float search's basis was certified. It is carried up through
// internal/core's result types to pkg/steady.Result and the
// /v1/stats counters of pkg/steady/server.
type SolveInfo struct {
	// Pivots is the total exact pivot count across all phases: the
	// exact walk's, and 0 for a certified float basis.
	Pivots int
	// Phase1Pivots is the share of Pivots spent finding a first
	// feasible basis: always 0 for a solve whose GE and EQ rows all have
	// right-hand side 0, which starts phase 2 from a crash basis instead.
	Phase1Pivots int
	// BlandPivots counts the exact pivots Bland's rule chose: each one
	// follows a degenerate pivot, after which the entering rule takes the
	// smallest improving index until a pivot moves. The paper's LPs start
	// degenerate, so a walk of any length has some.
	BlandPivots int
	// FloatPivots is the number of float64 pivots the search took: in a
	// session that walked on after a column, an objective or a ban,
	// every pivot since its search last started from the crash basis or
	// phase 1. Float pivots are cheap — Pivots counts only exact
	// rational pivots.
	FloatPivots int
	// CertifiedCold reports that a solve could not certify the
	// float basis (float failure, singular install, or a basis that is
	// not exactly optimal) and the returned solution came from the exact
	// two-phase walk instead. It names the path of a solve: float or
	// cold.
	CertifiedCold bool
	// Refactorizations counts exact basis refactorizations: the eta
	// file rebuilt from scratch, either periodically (every
	// reinvertEvery pivots since the last one), after a redundant row
	// is removed, or to install the float basis. Refactorizations
	// of the float64 search are not included — like FloatPivots, they
	// are cheap. When the engine refactors is invisible in every
	// certified number (exact arithmetic; all tie-breaks key on column
	// indices; a basis lists its columns in index order), so no golden
	// pins this count, the one thing the cadence does move.
	Refactorizations int
}

// Solution is the result of an exact solve.
type Solution struct {
	Status    Status
	Objective rat.Rat
	// Info reports pivot counts and the solve's path.
	Info   SolveInfo
	values []rat.Rat
	// basis is the optimal basis, the form's basic columns, ascending,
	// artificials and the artificial of every row phase 1 dropped
	// included: what Model.Duals installs again.
	basis []int
}

// Value returns the optimal value of v.
func (s *Solution) Value(v Var) rat.Rat { return s.values[v] }

// Values returns all variable values, indexed by Var.
func (s *Solution) Values() []rat.Rat { return s.values }

// evalExpr computes expr at the given point.
func evalExpr(e Expr, x []rat.Rat) rat.Rat {
	v := rat.Zero()
	for _, t := range e {
		v = v.Add(t.Coef.Mul(x[t.Var]))
	}
	return v
}

// CheckFeasible verifies that x satisfies every constraint and bound
// of the model exactly; it returns a descriptive error otherwise.
func (m *Model) CheckFeasible(x []rat.Rat) error {
	if len(x) != len(m.vars) {
		return fmt.Errorf("lp: point has %d values, model has %d vars", len(x), len(m.vars))
	}
	for v, vr := range m.vars {
		if !vr.free && x[v].Sign() < 0 {
			return fmt.Errorf("lp: var %s = %v violates x >= 0", m.Name(Var(v)), x[v])
		}
		if vr.hasUp && x[v].Cmp(vr.upper) > 0 {
			return fmt.Errorf("lp: var %s = %v violates upper bound %v", m.Name(Var(v)), x[v], vr.upper)
		}
	}
	for i, c := range m.cons {
		lhs := evalExpr(m.row(i), x)
		ok := false
		switch c.op {
		case LE:
			ok = lhs.Cmp(c.rhs) <= 0
		case GE:
			ok = lhs.Cmp(c.rhs) >= 0
		case EQ:
			ok = lhs.Equal(c.rhs)
		}
		if !ok {
			return fmt.Errorf("lp: constraint %d (%s): %v %s %v violated",
				i, m.rowName(i), lhs, c.op, c.rhs)
		}
	}
	return nil
}

// CheckOptimal proves x optimal by weak duality, exactly and with no
// solver in the loop: x must be feasible (CheckFeasible), and y — one
// multiplier per constraint, in the sign convention of Model.Duals —
// must be a dual solution whose bound meets the objective at x. With
// sgn = +1 for Maximize and -1 for Minimize, sgn·y is judged against
// the maximisation of sgn·c: non-negative on an LE row, non-positive on
// a GE row, free on an EQ row. The reduced cost d_v = sgn·c_v −
// Σ_i sgn·y_i·a_iv may be negative only for a variable bounded below
// by 0 (not a free one), and positive only under an upper bound u_v,
// where it is the multiplier of the row x_v <= u_v — which Duals does
// not report — and adds u_v·d_v to the dual bound. Every feasible point
// then scores at most Σ_i sgn·y_i·b_i + Σ_v u_v·max(d_v, 0), and x is
// accepted iff it scores exactly that.
func (m *Model) CheckOptimal(x, y []rat.Rat) error {
	if err := m.CheckFeasible(x); err != nil {
		return err
	}
	if len(y) != len(m.cons) {
		return fmt.Errorf("lp: %d multipliers, model has %d constraints", len(y), len(m.cons))
	}
	sgn := rat.One()
	if m.sense == Minimize {
		sgn = rat.FromInt(-1)
	}
	d := make([]rat.Rat, len(m.vars))
	for v, c := range m.obj {
		d[v] = sgn.Mul(c)
	}
	bound := rat.Zero()
	for i, c := range m.cons {
		yi := sgn.Mul(y[i])
		if (c.op == LE && yi.Sign() < 0) || (c.op == GE && yi.Sign() > 0) {
			return fmt.Errorf("lp: multiplier %v of constraint %d (%s) has the wrong sign for a %s row", y[i], i, m.rowName(i), c.op)
		}
		for _, t := range m.row(i) {
			d[t.Var] = d[t.Var].Sub(yi.Mul(t.Coef))
		}
		bound = bound.Add(yi.Mul(c.rhs))
	}
	for v, dv := range d {
		vr := &m.vars[v]
		switch {
		case dv.Sign() > 0 && !vr.hasUp:
			return fmt.Errorf("lp: reduced cost %v of var %s is positive and the variable has no upper bound", dv, m.Name(Var(v)))
		case dv.Sign() > 0:
			bound = bound.Add(vr.upper.Mul(dv))
		case dv.Sign() < 0 && vr.free:
			return fmt.Errorf("lp: reduced cost %v of free var %s is negative", dv, m.Name(Var(v)))
		}
	}
	if obj := sgn.Mul(m.ObjectiveAt(x)); !obj.Equal(bound) {
		return fmt.Errorf("lp: objective %v at x differs from the dual bound %v", sgn.Mul(obj), sgn.Mul(bound))
	}
	return nil
}

// ObjectiveAt evaluates the objective at x.
func (m *Model) ObjectiveAt(x []rat.Rat) rat.Rat {
	v := rat.Zero()
	for vr, c := range m.obj {
		v = v.Add(c.Mul(x[vr]))
	}
	return v
}

// String renders the model as WriteLP does, for debugging.
func (m *Model) String() string {
	var b strings.Builder
	m.WriteLP(&b) // a strings.Builder write cannot fail
	return b.String()
}
