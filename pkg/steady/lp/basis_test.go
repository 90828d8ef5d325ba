package lp

import (
	"math/rand"
	"slices"
	"testing"
)

// The references the index-slice basis code is held to: the encoding
// that cloned and sorted the engine's basis, and the lookup through two
// maps, keyed by the whole entry and by column.

// encodeSorted encodes basis, a list of basic columns in any order, by
// sorting a copy of it.
func encodeSorted(s *stdForm, basis []int) *Basis {
	basis = slices.Sorted(slices.Values(basis))
	out := &Basis{nVars: s.m.NumVars(), nCons: s.m.NumCons()}
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

// mapByMaps resolves b against s through a map from every entry a
// column encodes to, and a map of the columns taken.
func mapByMaps(s *stdForm, b *Basis) ([]int, bool) {
	if b == nil || b.nVars != s.m.NumVars() || b.nCons != s.m.NumCons() {
		return nil, false
	}
	if len(b.entries) == 0 || len(b.entries) > len(s.rows) {
		return nil, false
	}
	lookup := map[basisEntry]int{}
	for j := range s.cols {
		if e := encodeSorted(s, []int{j}).entries; len(e) == 1 {
			lookup[e[0]] = j
		}
	}
	seen := map[int]bool{}
	var colIdx []int
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

// hostileModel has a column of every kind an entry can name: a plain
// variable, a free one (two parts), one with a bound row, an LE row's
// slack, a GE row's surplus (and artificial) and an EQ row's
// artificial.
func hostileModel() *Model {
	m := NewModel()
	x, y, z := m.Var("x"), m.Var("y"), m.VarRange("z", ri(5))
	m.SetFree(y)
	m.Objective(Maximize, Expr{{x, ri(1)}, {y, ri(1)}, {z, ri(1)}})
	m.Le("le", Expr{{x, ri(1)}, {y, ri(1)}}, ri(4))
	m.Ge("ge", Expr{{x, ri(1)}, {z, ri(-1)}}, ri(1))
	m.Eq("eq", Expr{{y, ri(1)}, {z, ri(1)}}, ri(3))
	m.Le("neg", Expr{{x, ri(-1)}}, ri(-1)) // a flipped row: its logical is a surplus
	return m
}

// TestMapBasisHostile: every hint the two maps turned away, mapBasis
// turns away, and every one they mapped it maps to the same columns —
// on hand-written hostile rows, then on random ones.
func TestMapBasisHostile(t *testing.T) {
	s := hostileModel().standardize(nil)
	nv, nc := s.m.NumVars(), s.m.NumCons()
	shape := func(entries ...basisEntry) *Basis { return &Basis{nVars: nv, nCons: nc, entries: entries} }
	v := func(i int) basisEntry { return basisEntry{kind: colStruct, idx: i} }
	for _, tc := range []struct {
		name string
		b    *Basis
		ok   bool
	}{
		{"well-formed", shape(v(0), basisEntry{kind: colStruct, neg: true, idx: 1}, basisEntry{kind: colSlack, bound: true, idx: 2}), true},
		{"a surplus", shape(basisEntry{kind: colSurplus, idx: 1}), true},
		{"nil", nil, false},
		{"empty", shape(), false},
		{"another shape", &Basis{nVars: nv + 1, nCons: nc, entries: []basisEntry{v(0)}}, false},
		{"duplicate", shape(v(0), v(0)), false},
		{"duplicate slack", shape(basisEntry{kind: colSlack, idx: 0}, basisEntry{kind: colSlack, idx: 0}), false},
		{"index past the variables", shape(v(nv)), false},
		{"negative index", shape(v(-1)), false},
		{"index past the constraints", shape(basisEntry{kind: colSlack, idx: nc}), false},
		{"bound slack past the variables", shape(basisEntry{kind: colSlack, bound: true, idx: nv}), false},
		{"surplus on a bound row", shape(basisEntry{kind: colSurplus, bound: true, idx: 2}), false},
		{"neg on a slack", shape(basisEntry{kind: colSlack, neg: true, idx: 0}), false},
		{"neg on a bound slack", shape(basisEntry{kind: colSlack, neg: true, bound: true, idx: 2}), false},
		{"neg on a variable that is not free", shape(basisEntry{kind: colStruct, neg: true, idx: 0}), false},
		{"bound on a variable", shape(basisEntry{kind: colStruct, bound: true, idx: 2}), false},
		{"slack of a GE row", shape(basisEntry{kind: colSlack, idx: 1}), false},
		{"surplus of an LE row", shape(basisEntry{kind: colSurplus, idx: 0}), false},
		{"logical of an EQ row", shape(basisEntry{kind: colSlack, idx: 2}), false},
		{"slack of a flipped LE row", shape(basisEntry{kind: colSlack, idx: 3}), false},
		{"bound slack of an unbounded variable", shape(basisEntry{kind: colSlack, bound: true, idx: 0}), false},
		{"an artificial", shape(basisEntry{kind: colArtificial, idx: 1}), false},
		{"an unknown kind", shape(basisEntry{kind: 9, idx: 0}), false},
		{"more entries than rows", shape(v(0), basisEntry{kind: colStruct, neg: true, idx: 1}, v(1), v(2),
			basisEntry{kind: colSlack, idx: 0}, basisEntry{kind: colSurplus, idx: 1}), false},
	} {
		want, wantOK := mapByMaps(s, tc.b)
		if wantOK != tc.ok {
			t.Fatalf("%s: the maps say %v", tc.name, wantOK)
		}
		got, ok := mapBasis(s, tc.b, nil)
		if ok != tc.ok || !slices.Equal(got, want) {
			t.Errorf("%s: mapBasis gives %v %v, the maps %v %v", tc.name, got, ok, want, wantOK)
		}
	}

	rng := rand.New(rand.NewSource(1))
	buf := []int(nil)
	mapped := 0
	for range 20000 {
		entries := make([]basisEntry, 1+rng.Intn(len(s.rows)))
		for i := range entries {
			entries[i] = basisEntry{
				kind:  colKind(rng.Intn(5)),
				neg:   rng.Intn(4) == 0,
				bound: rng.Intn(4) == 0,
				idx:   rng.Intn(max(nv, nc)+2) - 1,
			}
		}
		b := shape(entries...)
		want, wantOK := mapByMaps(s, b)
		got, ok := mapBasis(s, b, buf)
		if ok != wantOK || !slices.Equal(got, want) {
			t.Fatalf("%v: mapBasis gives %v %v, the maps %v %v", entries, got, ok, want, wantOK)
		}
		if ok {
			mapped++
			buf = got
		}
	}
	if mapped < 100 {
		t.Fatalf("only %d random hints mapped", mapped)
	}
}
