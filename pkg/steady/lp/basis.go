package lp

import "slices"

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

// encodeBasis renders the engine's final basis in model terms, in
// ascending column order: which row position a column holds is the
// factorization's business, and one basis must encode to the same
// entries however it was factored. Artificial columns (possible only
// as degenerate leftovers of a warm-started solve) are skipped: a
// later warm start re-pads uncovered rows itself.
func encodeBasis(s *stdForm, basis []int) *Basis {
	out := &Basis{nVars: s.m.NumVars(), nCons: s.m.NumCons(), entries: make([]basisEntry, 0, len(basis))}
	basis = slices.Clone(basis)
	slices.Sort(basis)
	for _, j := range basis {
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
// returning the column indices it names. ok is false when the basis
// does not fit the model (shape mismatch, unknown entry, duplicate),
// in which case the caller solves cold. A basis with no entries names
// nothing to start from: all padding, it is the cold start without the
// cold path's crash, and it is turned away as a hint like any misfit.
func mapBasis(s *stdForm, b *Basis) (colIdx []int, ok bool) {
	if b == nil || b.nVars != s.m.NumVars() || b.nCons != s.m.NumCons() {
		return nil, false
	}
	if len(b.entries) == 0 || len(b.entries) > len(s.rows) {
		return nil, false
	}
	lookup := make(map[basisEntry]int, len(s.cols))
	for j := range s.cols {
		col := &s.cols[j]
		switch col.kind {
		case colStruct:
			lookup[basisEntry{kind: colStruct, neg: col.neg, idx: int(col.vr)}] = j
		case colSlack, colSurplus:
			r := &s.rows[col.row]
			if r.conIdx >= 0 {
				lookup[basisEntry{kind: col.kind, idx: r.conIdx}] = j
			} else {
				lookup[basisEntry{kind: col.kind, bound: true, idx: int(r.boundVar)}] = j
			}
		}
	}
	seen := make(map[int]bool, len(b.entries))
	for _, e := range b.entries {
		j, found := lookup[e]
		if !found || seen[j] {
			return nil, false
		}
		seen[j] = true
		colIdx = append(colIdx, j)
	}
	return colIdx, true
}
