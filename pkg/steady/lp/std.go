package lp

import (
	"slices"
	"sync"

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
	conIdx   int  // index into the model's constraints, or -1 for an upper-bound row
	boundVar Var  // for conIdx == -1: the bounded variable
	flipped  bool // row was negated to make rhs >= 0
}

// stdForm is the sparse computational form of a Model: equational
// constraints with non-negative right-hand sides, columns stored
// sparse, and an all-identity starting basis of slacks/artificials.
// It is immutable while a solve reads it: engines that remove redundant
// rows do so on their own copies, so one form serves the float search
// and the exact certificate after it.
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

	// What a recycled form keeps besides: the block every column is
	// carved from, and standardize's scratch.
	nz    []entry[rat.Rat]
	sums  []Term
	ends  []int
	at    []int
	bound []bool
}

// forms recycles standardized forms across solves, as the engine pools
// recycle workspaces: built per solve, a form and its scratch were 71 KB
// of a master-slave cold miss at n=48. A form is one solve's alone from
// standardize to putForm.
var forms = sync.Pool{New: func() any { return new(stdForm) }}

// putForm detaches s from its model, clears every rational and column it
// holds and returns it to the pool, which then pins neither a model nor
// a number. standardize leaves nothing past the lengths it sets, so
// clearing up to them clears everything.
func putForm(s *stdForm) {
	s.m = nil
	clear(s.nz)
	clear(s.cols)
	clear(s.rows)
	clear(s.b)
	clear(s.sums)
	forms.Put(s)
}

// standardize converts the model to sparse computational form, on a
// form from the pool that the caller hands back with putForm. Column
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
//
// Once stop is closed it returns nil, at the next of its polls every
// pollEvery rows or variables, and leaves the form to the collector.
func (m *Model) standardize(stop <-chan struct{}) *stdForm {
	s := forms.Get().(*stdForm)
	nVars := len(m.vars)
	stopped := func(i int) bool { return i%pollEvery == 0 && closed(stop) }

	// Every row is summed once, per variable, for both passes below:
	// sums[ends[i]:ends[i+1]] is row i's variables in first-use order,
	// each with the nonzero sum of its terms. at[v] is where v sits in
	// sums, if that is within the row being summed.
	sums := slices.Grow(s.sums[:0], len(m.terms))
	ends := filled(s.ends, len(m.cons)+1, 0)
	at := filled(s.at, nVars, 0)
	for i := range m.cons {
		if stopped(i) {
			return nil
		}
		from := len(sums)
		for _, t := range m.row(i) {
			if p := at[t.Var]; p >= from && p < len(sums) && sums[p].Var == t.Var {
				sums[p].Coef = sums[p].Coef.Add(t.Coef)
			} else {
				at[t.Var] = len(sums)
				sums = append(sums, t)
			}
		}
		kept := from // a variable whose terms cancel is not in the row
		for _, t := range sums[from:] {
			if !t.Coef.IsZero() {
				sums[kept] = t
				kept++
			}
		}
		clear(sums[kept:]) // the terms that cancelled, past the length putForm clears to
		sums, ends[i+1] = sums[:kept], kept
	}

	// bound[v]: x_v <= u_v needs a row. It does not when some row
	// Σ a_j x_j <= b has b >= 0, no free x_j, every a_j >= 0 (terms
	// summed per variable), a_v > 0 and b <= u_v a_v: on every point of
	// that row a_v x_v <= Σ a_j x_j <= b, so x_v <= b / a_v <= u_v.
	bound := zeroed(s.bound, nVars)
	for v := range m.vars {
		bound[v] = m.vars[v].hasUp
	}
	for i, c := range m.cons {
		if stopped(i) {
			return nil
		}
		if c.op != LE || c.rhs.Sign() < 0 {
			continue
		}
		row := sums[ends[i]:ends[i+1]]
		if slices.ContainsFunc(row, func(t Term) bool { return m.vars[t.Var].free || t.Coef.Sign() < 0 }) {
			continue
		}
		for _, t := range row {
			if bound[t.Var] && c.rhs.Cmp(m.vars[t.Var].upper.Mul(t.Coef)) <= 0 {
				bound[t.Var] = false
			}
		}
	}

	// Every column is carved at its final length out of one block:
	// count[v] nonzeros for each part of variable v, and one (LE, EQ) or
	// two (GE) logical columns of one entry per row.
	count := at
	clear(count)
	for _, t := range sums {
		count[t.Var]++
	}
	nRows, nLogical := len(m.cons), 0
	for _, c := range m.cons {
		nLogical += logicals(c.op, c.rhs)
	}
	for v := range m.vars {
		if bound[v] {
			count[v]++
			nRows++
			nLogical += logicals(LE, m.vars[v].upper)
		}
	}
	nStruct, nEntries := 0, 0
	for v := range m.vars {
		n := 1
		if m.vars[v].free {
			n = 2 // positive and negative part
		}
		nStruct += n
		nEntries += n * count[v]
	}
	block := slices.Grow(s.nz[:0], nEntries+nLogical)[:nEntries+nLogical]
	all := block
	carve := func(n int) []entry[rat.Rat] {
		nz := all[:0:n]
		all = all[n:]
		return nz
	}

	cols := slices.Grow(s.cols[:0], nStruct+nLogical)
	structOf := count // var -> first (positive) column, once carved
	for v := range m.vars {
		if stopped(v) {
			return nil
		}
		n := count[v]
		structOf[v] = len(cols)
		cols = append(cols, column{kind: colStruct, vr: Var(v), nz: carve(n)})
		if m.vars[v].free {
			cols = append(cols, column{kind: colStruct, vr: Var(v), neg: true, nz: carve(n)})
		}
	}

	rows := slices.Grow(s.rows[:0], nRows)
	b := slices.Grow(s.b[:0], nRows)
	addRow := func(terms []Term, op Op, rhs rat.Rat, conIdx int, boundVar Var) {
		op, flipped := stdOp(op, rhs)
		if flipped {
			rhs = rhs.Neg()
		}
		r := len(rows)
		for _, t := range terms {
			c := t.Coef
			if flipped {
				c = c.Neg()
			}
			j := structOf[t.Var]
			cols[j].nz = append(cols[j].nz, entry[rat.Rat]{row: r, v: c})
			if m.vars[t.Var].free {
				cols[j+1].nz = append(cols[j+1].nz, entry[rat.Rat]{row: r, v: c.Neg()})
			}
		}
		rows = append(rows, stdRow{op: op, rhs: rhs, conIdx: conIdx, boundVar: boundVar, flipped: flipped})
		b = append(b, rhs)
	}
	for i, c := range m.cons {
		if stopped(i) {
			return nil
		}
		addRow(sums[ends[i]:ends[i+1]], c.op, c.rhs, i, -1)
	}
	for v := range m.vars {
		if bound[v] {
			addRow([]Term{{Var(v), rat.One()}}, LE, m.vars[v].upper, -1, Var(v))
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
		if stopped(i) {
			return nil
		}
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

	*s = stdForm{m: m, cols: cols, rows: rows, b: b, homogeneous: homogeneous,
		nz: block, sums: sums, ends: ends, at: at, bound: bound}
	return s
}

// stdOp is the operator of a row op rhs once standardize has made its
// right-hand side non-negative: negated (flipped) when rhs < 0.
func stdOp(op Op, rhs rat.Rat) (_ Op, flipped bool) {
	if rhs.Sign() >= 0 {
		return op, false
	}
	switch op {
	case LE:
		return GE, true
	case GE:
		return LE, true
	}
	return op, true
}

// logicals is how many logical columns the standardized row op rhs
// gets: two on a GE row (a surplus and an artificial), one otherwise.
func logicals(op Op, rhs rat.Rat) int {
	if op, _ := stdOp(op, rhs); op == GE {
		return 2
	}
	return 1
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
