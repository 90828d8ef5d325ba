package lp

import "repro/pkg/steady/rat"

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
}

// standardize converts the model to sparse computational form. Column
// order (structural columns first, split free variables adjacent,
// then per-row logical columns in row order) and row order
// (constraints, then upper bounds) are deterministic and match the
// historical dense tableau, so pivot sequences are reproducible.
func (m *Model) standardize() *stdForm {
	nVars := m.NumVars()
	nRows := len(m.cons)
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
		if m.hasUp[v] {
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
	// A row's terms are summed per variable in coef; seen[v] == r+1
	// marks coef[v] as belonging to row r, so neither is cleared between
	// rows, and touched lists the row's variables in first-use order.
	coef := make([]rat.Rat, nVars)
	seen := make([]int, nVars)
	var touched []Var
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
		touched = touched[:0]
		for _, term := range e {
			if seen[term.Var] != r+1 {
				seen[term.Var], coef[term.Var] = r+1, rat.Zero()
				touched = append(touched, term.Var)
			}
			coef[term.Var] = coef[term.Var].Add(term.Coef)
		}
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
		if m.hasUp[v] {
			addRow(Expr{{Var(v), rat.One()}}, LE, m.upper[v], -1, Var(v))
		}
	}

	// Logical columns in row order, exactly like the historical
	// tableau: LE gets a slack, GE a surplus and an artificial, EQ an
	// artificial.
	logical := func(kind colKind, i int, v rat.Rat) {
		cols = append(cols, column{kind: kind, row: i, nz: append(carve(1), entry[rat.Rat]{row: i, v: v})})
	}
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
	}

	return &stdForm{m: m, cols: cols, rows: rows, b: b}
}

// identityBasis returns the all-slack/artificial starting basis: for
// each row, the index of the logical column that is its identity
// column (the slack of an LE row, the artificial of a GE/EQ row).
func (s *stdForm) identityBasis() []int {
	basis := make([]int, len(s.rows))
	for j, col := range s.cols {
		switch col.kind {
		case colSlack, colArtificial:
			basis[col.row] = j
		}
	}
	return basis
}
