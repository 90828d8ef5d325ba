package lp

// basisEntry identifies one basic column in model terms — stable
// across re-standardization of a structurally identical model, which
// is what lets a basis warm-start a neighboring solve.
type basisEntry struct {
	kind  colKind // colStruct, colSlack or colSurplus (never colArtificial)
	neg   bool    // colStruct: the negative part of a free variable
	bound bool    // colSlack: slack of an upper-bound row rather than a constraint
	idx   int     // colStruct / bound slack: var index; otherwise constraint index
}

// Basis is the optimal basis of a solved Model, in a representation
// keyed by the model's own structure (variable and constraint
// indices) rather than by internal column positions. Obtain one from
// Solution.Basis and feed it to Model.SolveFrom (or
// Options.WarmBasis) on a model with the same shape — same variable
// count, constraint count, operators and bound rows — to re-solve in a
// handful of pivots instead of from scratch. Which bounds have a row
// (see Model) depends on the <=-rows' coefficients, not only on the
// sparsity pattern: it is stable across the re-costs sweeps and the
// control plane make, because port rows have unit coefficients, and a
// basis naming the slack of a bound row the model lacks (one encoded
// before implied bounds lost their rows, say) is turned away like any
// other misfit, for a cold solve.
//
// A Basis is immutable and safe for concurrent use; pkg/steady/batch
// caches one per solver and pkg/steady/sim's adaptive controller
// carries one across epochs.
type Basis struct {
	nVars, nCons int
	entries      []basisEntry
}

// Len returns the number of basic columns recorded (at most the
// model's row count; fewer when redundant rows were removed or the
// optimum kept a degenerate artificial basic).
func (b *Basis) Len() int {
	if b == nil {
		return 0
	}
	return len(b.entries)
}

// encodeBasis renders the engine's final basis, the columns inB marks,
// in model terms, in ascending column order: which row position a
// column holds is the factorization's business, and one basis must
// encode to the same entries however it was factored. inB is indexed by
// column, so walking it is that order with no sort. size is the number
// of basic columns, the entries' capacity. Artificial columns (possible
// only as degenerate leftovers of a warm-started solve) are skipped: a
// later warm start re-pads uncovered rows itself.
func encodeBasis(s *stdForm, inB []bool, size int) *Basis {
	out := &Basis{nVars: s.m.NumVars(), nCons: s.m.NumCons(), entries: make([]basisEntry, 0, size)}
	for j, in := range inB {
		if !in {
			continue
		}
		col := &s.cols[j]
		switch col.kind {
		case colStruct:
			out.entries = append(out.entries, basisEntry{kind: colStruct, neg: col.neg, idx: int(col.vr)})
		case colSlack, colSurplus:
			r := &s.rows[col.row]
			if r.conIdx >= 0 {
				out.entries = append(out.entries, basisEntry{kind: col.kind, idx: r.conIdx})
			} else {
				out.entries = append(out.entries, basisEntry{kind: col.kind, bound: true, idx: int(r.boundVar)})
			}
		}
	}
	return out
}

// mapBasis resolves a Basis against a freshly standardized form,
// returning the column indices it names, written over buf. ok is false
// when the basis does not fit the model (shape mismatch, unknown entry,
// duplicate), in which case the caller solves cold. A basis with no
// entries names nothing to start from: all padding, it is the cold
// start without the cold path's crash, and it is turned away as a hint
// like any misfit.
//
// An entry is looked up by its slot in s.keys, one slot per entry a
// column of s can encode to: the two parts of each variable, then the
// logical column of each constraint, then the slack of each variable's
// bound row. A slot holds its column plus one (0 when no column
// encodes to it), negated once an entry has taken it: two entries
// naming one column name one slot, so that is the duplicate check.
func mapBasis(s *stdForm, b *Basis, buf []int) (colIdx []int, ok bool) {
	nVars, nCons := s.m.NumVars(), s.m.NumCons()
	if b == nil || b.nVars != nVars || b.nCons != nCons {
		return nil, false
	}
	if len(b.entries) == 0 || len(b.entries) > len(s.rows) {
		return nil, false
	}
	keys := zeroed(s.keys, 3*nVars+nCons)
	s.keys = keys
	for j := range s.cols {
		col := &s.cols[j]
		switch col.kind {
		case colStruct:
			k := 2 * int(col.vr)
			if col.neg {
				k++
			}
			keys[k] = j + 1
		case colSlack, colSurplus:
			if r := &s.rows[col.row]; r.conIdx >= 0 {
				keys[2*nVars+r.conIdx] = j + 1
			} else {
				keys[2*nVars+nCons+int(r.boundVar)] = j + 1
			}
		}
	}
	colIdx = buf[:0]
	for _, e := range b.entries {
		k := -1
		switch {
		case e.kind == colStruct && !e.bound && e.idx >= 0 && e.idx < nVars:
			k = 2 * e.idx
			if e.neg {
				k++
			}
		case (e.kind == colSlack || e.kind == colSurplus) && !e.neg && !e.bound && e.idx >= 0 && e.idx < nCons:
			k = 2*nVars + e.idx
		case (e.kind == colSlack || e.kind == colSurplus) && !e.neg && e.bound && e.idx >= 0 && e.idx < nVars:
			k = 2*nVars + nCons + e.idx
		}
		if k < 0 || keys[k] <= 0 {
			return nil, false // no such entry, or one taken already
		}
		j := keys[k] - 1
		if s.cols[j].kind != e.kind { // the slack of a row the model has a surplus for, or the reverse
			return nil, false
		}
		keys[k] = -keys[k]
		colIdx = append(colIdx, j)
	}
	return colIdx, true
}
