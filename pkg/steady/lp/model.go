// Package lp implements the linear-programming engine of the
// steady-state scheduling stack: a model builder, an exact sparse
// revised simplex over rationals with warm-started re-solves and a
// float64 search in front of it (Options.FloatFirst), and an exact
// duality certificate (Model.CheckOptimal) that proves an optimum
// without any of it.
//
// The steady-state framework of Beaumont et al. requires *rational*
// optima — the schedule period is the lcm of the solution's
// denominators — which is why the exact solver is the primary engine.
// Its design:
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
//   - pricing is Bland's rule — it reproduces the historical engine's
//     certified optima bit-for-bit. Dantzig's rule, with an automatic
//     switch to Bland's anti-cycling rule after a run of degenerate
//     pivots, is in the engine and no caller can select it; nor the
//     pivot budget, 200*(rows+cols+1);
//   - a solve stops when its caller closes Options.Interrupt: both
//     instantiations poll the channel before every pivot, and an
//     interrupted solve returns ErrInterrupted, never a Solution;
//   - a solved Model yields its optimal Basis, and a structurally
//     identical model can re-solve from it with SolveFrom — the
//     sweep/adaptive workloads of pkg/steady/batch and pkg/steady/sim
//     re-solve families of nearly identical LPs, and a warm basis
//     turns those re-solves into a handful of pivots.
//   - the float search works in one recycled workspace: an
//     engine[float64] comes out of a package-level pool when a solve
//     asks for FloatFirst and goes back, detached from its model, when
//     that solve returns. Between the two it is the solve's alone, and
//     reset leaves of the previous solve nothing but capacity. The
//     exact engine is built per solve.
//
// Build a Model with NewModel, declare variables with Var/VarRange
// (variables are non-negative by default; SetFree lifts that),
// constraints with Le/Ge/Eq, and call Solve (or SolveOpts/SolveFrom)
// for an exact Solution. CheckFeasible and CheckOptimal judge a point,
// and a point with its duals, against the model's own rows — the
// reference the tests hold every solve to. See ExampleModel for a
// complete program. internal/core
// builds the paper's LPs directly on this package; applications
// should normally consume them through the pkg/steady facade instead.
package lp

import (
	"fmt"
	"strings"

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

// Constraint is expr op rhs.
type Constraint struct {
	Name string
	Expr Expr
	Op   Op
	RHS  rat.Rat
}

// Model is a linear program under construction. All variables are
// non-negative unless marked free. An upper bound x_v <= u_v becomes a
// row of the solver's form unless one constraint already enforces it: a
// row Σ a_j x_j <= b with b >= 0, no free variable, every a_j >= 0,
// a_v > 0 and b / a_v <= u_v, on which a_v x_v <= Σ a_j x_j <= b. The
// one-port rows Σ s <= 1 of the paper's LPs imply every s_e <= 1 this
// way; Σ s <= 2 implies none, and nothing implies an alpha_i <= 1. The
// model, WriteLP, CheckFeasible and CheckOptimal keep every bound.
type Model struct {
	names []string
	free  []bool
	upper []rat.Rat
	hasUp []bool

	obj   map[Var]rat.Rat
	sense Sense
	cons  []Constraint
}

// NewModel returns an empty maximization model.
func NewModel() *Model {
	return &Model{obj: make(map[Var]rat.Rat)}
}

// Var adds a non-negative variable and returns its handle.
func (m *Model) Var(name string) Var {
	m.names = append(m.names, name)
	m.free = append(m.free, false)
	m.upper = append(m.upper, rat.Zero())
	m.hasUp = append(m.hasUp, false)
	return Var(len(m.names) - 1)
}

// VarRange adds a variable with 0 <= x <= up.
func (m *Model) VarRange(name string, up rat.Rat) Var {
	v := m.Var(name)
	m.SetUpper(v, up)
	return v
}

// SetUpper sets (or replaces) an upper bound x <= up.
func (m *Model) SetUpper(v Var, up rat.Rat) {
	m.upper[v] = up
	m.hasUp[v] = true
}

// SetFree marks a variable as unrestricted in sign.
func (m *Model) SetFree(v Var) { m.free[v] = true }

// Name returns the variable's name.
func (m *Model) Name(v Var) string { return m.names[v] }

// NumVars returns the number of declared variables.
func (m *Model) NumVars() int { return len(m.names) }

// NumCons returns the number of added constraints.
func (m *Model) NumCons() int { return len(m.cons) }

// Objective sets the objective sense and expression (replacing any
// previous objective).
func (m *Model) Objective(sense Sense, e Expr) {
	m.sense = sense
	m.obj = make(map[Var]rat.Rat, len(e))
	for _, t := range e {
		m.obj[t.Var] = m.obj[t.Var].Add(t.Coef)
	}
}

// ObjCoef adds c to the objective coefficient of v.
func (m *Model) ObjCoef(v Var, c rat.Rat) {
	m.obj[v] = m.obj[v].Add(c)
}

// Constrain adds expr op rhs with a diagnostic name.
func (m *Model) Constrain(name string, e Expr, op Op, rhs rat.Rat) {
	m.cons = append(m.cons, Constraint{Name: name, Expr: e, Op: op, RHS: rhs})
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
// solve started from a warm basis. It is carried up through
// internal/core's result types to pkg/steady.Result and the
// /v1/stats counters of pkg/steady/server.
type SolveInfo struct {
	// Pivots is the total pivot count across all phases (including
	// dual-simplex repair pivots of a warm start).
	Pivots int
	// Phase1Pivots is the share of Pivots spent finding a first
	// feasible basis: always 0 for an accepted warm start, and for a
	// cold solve whose GE and EQ rows all have right-hand side 0, which
	// starts phase 2 from a crash basis instead.
	Phase1Pivots int
	// BlandPivots counts pivots taken under the Bland anti-cycling
	// fallback (engaged under Dantzig pricing only, so 0 for every
	// caller outside this package).
	BlandPivots int
	// WarmStarted reports that Options.WarmBasis was accepted and the
	// solve proceeded from it. When a warm basis is rejected (shape
	// mismatch, singular, too infeasible to repair, or turned away by
	// the float screen of a FloatFirst solve) the solver falls back to
	// a cold solve and WarmStarted stays false.
	WarmStarted bool
	// FloatPivots is the number of float64 pivots the float-first
	// search phase took (0 unless Options.FloatFirst ran; see the
	// package comment of floatfirst.go). Float pivots are cheap —
	// Pivots counts only exact rational pivots.
	FloatPivots int
	// RepairPivots is the number of exact pivots spent repairing the
	// float-optimal basis during certification (a subset of Pivots; 0
	// when the float basis was exactly optimal as installed).
	RepairPivots int
	// CertifiedCold reports that a float-first solve could not certify
	// the float basis (float failure, singular install, or repair
	// budget exhausted) and the returned solution came from the
	// pure-exact fallback instead. It is always false when FloatFirst
	// was not requested.
	CertifiedCold bool
	// Refactorizations counts exact basis refactorizations: the eta
	// file rebuilt from scratch, either periodically (every
	// reinvertEvery pivots since the last one), after a redundant row
	// is removed, or to install a warm/float basis. Refactorizations
	// of the float64 search are not included — like FloatPivots, they
	// are cheap. When the engine refactors is invisible in every
	// certified number (exact arithmetic; all tie-breaks key on column
	// indices; a Basis lists its columns in index order), so no golden
	// pins this count, the one thing the cadence does move.
	Refactorizations int
}

// Solution is the result of an exact solve.
type Solution struct {
	Status    Status
	Objective rat.Rat
	// Info reports pivot counts and warm-start outcome.
	Info   SolveInfo
	values []rat.Rat
	duals  []rat.Rat // one per constraint, sign convention of the LE/GE/EQ row
	basis  *Basis    // optimal basis, for warm-started re-solves
}

// Value returns the optimal value of v.
func (s *Solution) Value(v Var) rat.Rat { return s.values[v] }

// Values returns all variable values, indexed by Var.
func (s *Solution) Values() []rat.Rat { return s.values }

// Dual returns the dual multiplier of constraint i (in the order the
// constraints were added).
func (s *Solution) Dual(i int) rat.Rat { return s.duals[i] }

// Basis returns the optimal basis, suitable for warm-starting a
// structurally identical model via SolveFrom. It is nil unless the
// solution is Optimal. The returned value is immutable and safe to
// share across goroutines.
func (s *Solution) Basis() *Basis { return s.basis }

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
	if len(x) != len(m.names) {
		return fmt.Errorf("lp: point has %d values, model has %d vars", len(x), len(m.names))
	}
	for v := range m.names {
		if !m.free[v] && x[v].Sign() < 0 {
			return fmt.Errorf("lp: var %s = %v violates x >= 0", m.names[v], x[v])
		}
		if m.hasUp[v] && x[v].Cmp(m.upper[v]) > 0 {
			return fmt.Errorf("lp: var %s = %v violates upper bound %v", m.names[v], x[v], m.upper[v])
		}
	}
	for i, c := range m.cons {
		lhs := evalExpr(c.Expr, x)
		ok := false
		switch c.Op {
		case LE:
			ok = lhs.Cmp(c.RHS) <= 0
		case GE:
			ok = lhs.Cmp(c.RHS) >= 0
		case EQ:
			ok = lhs.Equal(c.RHS)
		}
		if !ok {
			return fmt.Errorf("lp: constraint %d (%s): %v %s %v violated",
				i, c.Name, lhs, c.Op, c.RHS)
		}
	}
	return nil
}

// CheckOptimal proves x optimal by weak duality, exactly and with no
// solver in the loop: x must be feasible (CheckFeasible), and y — one
// multiplier per constraint, in the sign convention of Solution.Dual —
// must be a dual solution whose bound meets the objective at x. With
// sgn = +1 for Maximize and -1 for Minimize, sgn·y is judged against
// the maximisation of sgn·c: non-negative on an LE row, non-positive on
// a GE row, free on an EQ row. The reduced cost d_v = sgn·c_v −
// Σ_i sgn·y_i·a_iv may be negative only for a variable bounded below
// by 0 (not a free one), and positive only under an upper bound u_v,
// where it is the multiplier of the row x_v <= u_v — which Dual does
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
	d := make([]rat.Rat, len(m.names))
	for v, c := range m.obj {
		d[v] = sgn.Mul(c)
	}
	bound := rat.Zero()
	for i, c := range m.cons {
		yi := sgn.Mul(y[i])
		if (c.Op == LE && yi.Sign() < 0) || (c.Op == GE && yi.Sign() > 0) {
			return fmt.Errorf("lp: multiplier %v of constraint %d (%s) has the wrong sign for a %s row", y[i], i, c.Name, c.Op)
		}
		for _, t := range c.Expr {
			d[t.Var] = d[t.Var].Sub(yi.Mul(t.Coef))
		}
		bound = bound.Add(yi.Mul(c.RHS))
	}
	for v, dv := range d {
		switch {
		case dv.Sign() > 0 && !m.hasUp[v]:
			return fmt.Errorf("lp: reduced cost %v of var %s is positive and the variable has no upper bound", dv, m.names[v])
		case dv.Sign() > 0:
			bound = bound.Add(m.upper[v].Mul(dv))
		case dv.Sign() < 0 && m.free[v]:
			return fmt.Errorf("lp: reduced cost %v of free var %s is negative", dv, m.names[v])
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
