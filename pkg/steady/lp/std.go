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
// variable or which row's logical column it is), its cost and its
// sparse constraint coefficients.
type column struct {
	kind colKind
	vr   Var  // colStruct: the model variable
	neg  bool // colStruct: the negative part of a free variable
	row  int  // slack/surplus/artificial: the row it belongs to
	// cost is the column's objective coefficient as every walk maximizes
	// it: the model's, negated on the negative part of a free variable and
	// under Minimize (costOf); 0 on a logical column.
	cost rat.Rat
	nz   []entry[rat.Rat]
}

// stdRow is a standardized constraint row (rhs >= 0).
type stdRow struct {
	op       Op
	rhs      rat.Rat
	conIdx   int  // index into the model's constraints, or -1 for an upper-bound row
	boundVar Var  // for conIdx == -1: the bounded variable
	flipped  bool // row was negated to make rhs >= 0
	implies  bool // the row enforces an upper bound that has no row of its own
}

// stdForm is the sparse computational form of a Model: equational
// constraints with non-negative right-hand sides, columns stored
// sparse, and an all-identity starting basis of slacks/artificials.
// Only its session changes it (Session.AddColumn), and
// never while an engine walks it; engines that remove redundant rows do
// so on their own copies, so one form serves the float search and the
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

	// What a recycled form keeps besides: the block columns are carved
	// from, and standardize's scratch.
	nz    []entry[rat.Rat]
	sums  []Term
	ends  []int
	at    []int
	bound []bool
}

// release detaches s from its model and clears every rational and
// column it holds, so that a pooled session pins neither a model nor a
// number. Nothing lies past the lengths standardize and appendColumn
// set, so clearing up to them clears everything.
func (s *stdForm) release() {
	s.m = nil
	clear(s.nz)
	clear(s.cols)
	clear(s.rows)
	clear(s.b)
	clear(s.sums)
}

// appendColumn appends c with room for n entries carved from the form's
// block and returns its index: the one way a column enters a form, for
// standardize and Session.AddColumn alike. A full block stays with the
// columns carved from it and a larger one takes its place.
func (s *stdForm) appendColumn(c column, n int) int {
	k := len(s.nz)
	if k+n > cap(s.nz) {
		s.nz, k = make([]entry[rat.Rat], 0, max(2*cap(s.nz), n)), 0
	}
	c.nz, s.nz = s.nz[k:k:k+n], s.nz[:k+n]
	s.cols = append(s.cols, c)
	return len(s.cols) - 1
}

// costOf is c's cost under the model's objective (see column.cost).
func (m *Model) costOf(c *column) rat.Rat {
	if c.kind != colStruct {
		return rat.Zero()
	}
	v := m.objCoef(c.vr)
	if c.neg != (m.sense == Minimize) {
		v = v.Neg()
	}
	return v
}

// standardize converts the model to sparse computational form in s,
// reusing what s grew for an earlier model. Row order is constraints,
// then upper bounds; column order is the structural columns (split free
// variables adjacent), then per-row logical columns in row order, then
// the structural columns of the variables a session added as columns
// (Model.late) — where Session.AddColumn appends them, so a form built
// again from the extended model numbers its columns as the session's
// did. Both orders are deterministic and match the historical dense
// tableau, so pivot sequences are reproducible.
//
// An upper bound gets a row unless a single <=-row already enforces it
// (see Model): §3.1 prints 0 <= s_ij <= 1 beside the one-port rows
// Σ_j s_ij <= 1, and a bound its port row implies would be a row and a
// slack to factor, price and ratio-test for nothing — a third of the
// n=48 master-slave form, and the rows that are left keep their order.
//
// Once stop is closed it returns false, at the next of its polls every
// pollEvery rows or variables, and leaves s partial.
func (m *Model) standardize(s *stdForm, stop <-chan struct{}) bool {
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
			return false
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
		clear(sums[kept:]) // the terms that cancelled, past the length release clears to
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
	rows := slices.Grow(s.rows[:0], len(m.cons))
	for i, c := range m.cons {
		if stopped(i) {
			return false
		}
		rows = append(rows, stdRow{op: c.op, rhs: c.rhs, conIdx: i, boundVar: -1})
		if c.op != LE || c.rhs.Sign() < 0 {
			continue
		}
		row := sums[ends[i]:ends[i+1]]
		if slices.ContainsFunc(row, func(t Term) bool { return m.vars[t.Var].free || t.Coef.Sign() < 0 }) {
			continue
		}
		for _, t := range row {
			if bound[t.Var] && c.rhs.Cmp(m.vars[t.Var].upper.Mul(t.Coef)) <= 0 {
				bound[t.Var], rows[i].implies = false, true
			}
		}
	}
	for v := range m.vars {
		if bound[v] {
			rows = append(rows, stdRow{op: LE, rhs: m.vars[v].upper, conIdx: -1, boundVar: Var(v)})
		}
	}
	b := slices.Grow(s.b[:0], len(rows))
	homogeneous, nLogical := true, 0
	for i := range rows {
		r := &rows[i]
		if r.op, r.flipped = stdOp(r.op, r.rhs); r.flipped {
			r.rhs = r.rhs.Neg()
		}
		b = append(b, r.rhs)
		if nLogical++; r.op == GE {
			nLogical++ // a surplus and an artificial
		}
		if r.op != LE && !r.rhs.IsZero() {
			homogeneous = false
		}
	}

	// Every column is carved at its final length out of one block:
	// count[v] nonzeros for each part of variable v, one for a logical.
	count := at
	clear(count)
	for _, t := range sums {
		count[t.Var]++
	}
	nStruct, nEntries := 0, nLogical
	for v := range m.vars {
		if bound[v] {
			count[v]++
		}
		n := 1
		if m.vars[v].free {
			n = 2 // positive and negative part
		}
		nStruct += n
		nEntries += n * count[v]
	}
	*s = stdForm{m: m, cols: slices.Grow(s.cols[:0], nStruct+nLogical), rows: rows, b: b,
		homogeneous: homogeneous, nz: slices.Grow(s.nz[:0], nEntries),
		sums: sums, ends: ends, at: at, bound: bound}

	structOf := count // var -> first (positive) column, once appended
	structural := func(v int) {
		c := column{kind: colStruct, vr: Var(v)}
		c.cost = m.costOf(&c)
		n := count[v]
		structOf[v] = s.appendColumn(c, n)
		if m.vars[v].free {
			c.neg, c.cost = true, c.cost.Neg()
			s.appendColumn(c, n)
		}
	}
	early := nVars - m.late
	for v := range early {
		if stopped(v) {
			return false
		}
		structural(v)
	}
	// Logical columns in row order, exactly like the historical
	// tableau: LE gets a slack, GE a surplus and an artificial, EQ an
	// artificial.
	logical := func(kind colKind, i int, v rat.Rat) {
		j := s.appendColumn(column{kind: kind, row: i}, 1)
		s.cols[j].nz = append(s.cols[j].nz, entry[rat.Rat]{row: i, v: v})
	}
	for i, r := range rows {
		if stopped(i) {
			return false
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
	}
	for v := early; v < nVars; v++ {
		structural(v)
	}

	cols := s.cols
	enter := func(r int, terms []Term) {
		for _, t := range terms {
			c := t.Coef
			if rows[r].flipped {
				c = c.Neg()
			}
			j := structOf[t.Var]
			cols[j].nz = append(cols[j].nz, entry[rat.Rat]{row: r, v: c})
			if m.vars[t.Var].free {
				cols[j+1].nz = append(cols[j+1].nz, entry[rat.Rat]{row: r, v: c.Neg()})
			}
		}
	}
	for i := range m.cons {
		if stopped(i) {
			return false
		}
		enter(i, sums[ends[i]:ends[i+1]])
	}
	for r := len(m.cons); r < len(rows); r++ {
		enter(r, []Term{{rows[r].boundVar, rat.One()}})
	}
	return true
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
