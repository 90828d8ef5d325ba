package lp

import (
	"slices"

	"repro/pkg/steady/rat"
)

// colKind distinguishes computational-form columns for extraction,
// duals and basis encoding.
type colKind int8

const (
	colStruct     colKind = iota
	colSlack              // +1 coefficient in its row (LE rows)
	colSurplus            // -1 coefficient in its row (GE rows)
	colArtificial         // +1 coefficient in its row (GE/EQ rows)
)

// column is one computational-form column: its identity (which model
// variable or which row's logical column it is) plus its sparse
// constraint coefficients.
type column struct {
	kind colKind
	vr   Var  // colStruct: the model variable
	neg  bool // colStruct: the negative part of a free variable
	row  int  // slack/surplus/artificial: the row it belongs to
	nz   []entry[rat.Rat]
}

// stdRow is a standardized constraint row (rhs >= 0).
type stdRow struct {
	op       Op
	rhs      rat.Rat
	conIdx   int  // index into model.cons, or -1 for an upper-bound row
	boundVar Var  // for conIdx == -1: the bounded variable
	flipped  bool // row was negated to make rhs >= 0
}

// stdForm is the sparse computational form of a Model: equational
// constraints with non-negative right-hand sides, columns stored
// sparse, and an all-identity starting basis of slacks/artificials.
// It is immutable once built: engines that remove redundant rows do so
// on their own copies, so one form serves the float search and the
// exact certificate after it.
type stdForm struct {
	m    *Model
	cols []column
	rows []stdRow
	b    []rat.Rat
	// homogeneous: every row whose identity column is an artificial (a
	// GE or EQ row) has right-hand side 0, so the origin is feasible and
	// phase 1 has nothing to do — true of every LP the paper writes. It
	// is read off the exact b, so both kernels take the same branch.
	homogeneous bool
}

// standardize converts the model to sparse computational form. Column
// order (structural columns first, split free variables adjacent,
// then per-row logical columns in row order) and row order
// (constraints, then upper bounds) are deterministic and match the
// historical dense tableau, so pivot sequences are reproducible.
//
// An upper bound gets a row unless a single <=-row already enforces it
// (see Model): §3.1 prints 0 <= s_ij <= 1 beside the one-port rows
// Σ_j s_ij <= 1, and a bound its port row implies would be a row and a
// slack to factor, price and ratio-test for nothing — a third of the
// n=48 master-slave form, and the rows that are left keep their order.
func (m *Model) standardize() *stdForm {
	nVars := m.NumVars()
	nRows := len(m.cons)
	// A row's terms are summed per variable in coef; seen[v] == tag
	// marks coef[v] as belonging to the row summed under tag, so neither
	// is cleared between rows, and touched lists the row's variables in
	// first-use order.
	coef := make([]rat.Rat, nVars)
	seen := make([]int, nVars)
	var touched []Var
	sum := func(e Expr, tag int) {
		touched = touched[:0]
		for _, term := range e {
			if seen[term.Var] != tag {
				seen[term.Var], coef[term.Var] = tag, rat.Zero()
				touched = append(touched, term.Var)
			}
			coef[term.Var] = coef[term.Var].Add(term.Coef)
		}
	}
	// bound[v]: x_v <= u_v needs a row. It does not when some row
	// Σ a_j x_j <= b has b >= 0, no free x_j, every a_j >= 0 (terms
	// summed per variable), a_v > 0 and b <= u_v a_v: on every point of
	// that row a_v x_v <= Σ a_j x_j <= b, so x_v <= b / a_v <= u_v.
	bound := slices.Clone(m.hasUp)
	for i := range m.cons {
		c := &m.cons[i]
		if c.Op != LE || c.RHS.Sign() < 0 {
			continue
		}
		sum(c.Expr, -1-i) // negative: addRow's tags are its row numbers plus one
		if slices.ContainsFunc(touched, func(v Var) bool { return m.free[v] || coef[v].Sign() < 0 }) {
			continue
		}
		for _, v := range touched {
			if bound[v] && coef[v].Sign() > 0 && c.RHS.Cmp(m.upper[v].Mul(coef[v])) <= 0 {
				bound[v] = false
			}
		}
	}
	// terms[v] bounds the nonzeros of v's column, so every structural
	// column is carved out of one backing array and never regrows.
	terms := make([]int, nVars)
	for i := range m.cons {
		for _, term := range m.cons[i].Expr {
			terms[term.Var]++
		}
	}
	nStruct, nEntries := 0, 0
	for v := 0; v < nVars; v++ {
		if bound[v] {
			terms[v]++
			nRows++
		}
		n := 1
		if m.free[v] {
			n = 2 // positive and negative part
		}
		nStruct += n
		nEntries += n * terms[v]
	}
	all := make([]entry[rat.Rat], nEntries+2*nRows) // + at most two logical columns per row
	carve := func(n int) []entry[rat.Rat] {
		nz := all[:0:n]
		all = all[n:]
		return nz
	}

	cols := make([]column, 0, nStruct+2*nRows)
	structOf := make([]int, nVars) // var -> first (positive) column
	for v := 0; v < nVars; v++ {
		structOf[v] = len(cols)
		cols = append(cols, column{kind: colStruct, vr: Var(v), nz: carve(terms[v])})
		if m.free[v] {
			cols = append(cols, column{kind: colStruct, vr: Var(v), neg: true, nz: carve(terms[v])})
		}
	}

	rows := make([]stdRow, 0, nRows)
	b := make([]rat.Rat, 0, nRows)
	addRow := func(e Expr, op Op, rhs rat.Rat, conIdx int, boundVar Var) {
		flipped := rhs.Sign() < 0
		if flipped {
			rhs = rhs.Neg()
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		r := len(rows)
		sum(e, r+1)
		for _, v := range touched {
			c := coef[v]
			if c.IsZero() {
				continue
			}
			if flipped {
				c = c.Neg()
			}
			j := structOf[v]
			cols[j].nz = append(cols[j].nz, entry[rat.Rat]{row: r, v: c})
			if m.free[v] {
				cols[j+1].nz = append(cols[j+1].nz, entry[rat.Rat]{row: r, v: c.Neg()})
			}
		}
		rows = append(rows, stdRow{op: op, rhs: rhs, conIdx: conIdx, boundVar: boundVar, flipped: flipped})
		b = append(b, rhs)
	}
	for i, c := range m.cons {
		addRow(c.Expr, c.Op, c.RHS, i, -1)
	}
	for v := 0; v < nVars; v++ {
		if bound[v] {
			addRow(Expr{{Var(v), rat.One()}}, LE, m.upper[v], -1, Var(v))
		}
	}

	// Logical columns in row order, exactly like the historical
	// tableau: LE gets a slack, GE a surplus and an artificial, EQ an
	// artificial.
	logical := func(kind colKind, i int, v rat.Rat) {
		cols = append(cols, column{kind: kind, row: i, nz: append(carve(1), entry[rat.Rat]{row: i, v: v})})
	}
	homogeneous := true
	for i, r := range rows {
		switch r.op {
		case LE:
			logical(colSlack, i, rat.One())
		case GE:
			logical(colSurplus, i, rat.FromInt(-1))
			logical(colArtificial, i, rat.One())
		case EQ:
			logical(colArtificial, i, rat.One())
		}
		if r.op != LE && !r.rhs.IsZero() {
			homogeneous = false
		}
	}

	return &stdForm{m: m, cols: cols, rows: rows, b: b, homogeneous: homogeneous}
}

// identityBasis returns the all-slack/artificial starting basis: for
// each row, the index of the logical column that is its identity
// column (the slack of an LE row, the artificial of a GE/EQ row). It
// is written over buf when that has the room.
func (s *stdForm) identityBasis(buf []int) []int {
	basis := filled(buf, len(s.rows), 0)
	for j, col := range s.cols {
		switch col.kind {
		case colSlack, colArtificial:
			basis[col.row] = j
		}
	}
	return basis
}
