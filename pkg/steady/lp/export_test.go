package lp

import (
	"fmt"
	"slices"

	"repro/pkg/steady/rat"
)

// newEngine is an engine of its own, outside the pools.
func newEngine[T any](k kernel[T], s *stdForm, par params) *engine[T] {
	e := &engine[T]{k: k}
	e.reset(s, par)
	return e
}

// InstallNucleus installs b on m over exact rationals, as a warm start
// would, and reports how many of its columns the install had to FTRAN
// out of how many it stored a factor for (every basic column that is
// not a +1 unit column). For tests outside the package, which can build
// the platform LPs of internal/core where this package cannot.
func InstallNucleus(m *Model, b *Basis) (nucleus, factors int, ok bool) {
	s := m.standardize(nil)
	colIdx, ok := mapBasis(s, b, nil)
	if !ok {
		return 0, 0, false
	}
	e := newEngine[rat.Rat](ratKernel{}, s, m.resolveParams(nil, len(s.rows), len(s.cols)))
	if e.installBasis(colIdx) != nil {
		return 0, 0, false
	}
	return e.peel.nucleus, len(e.etas), true
}

// SolveExactWalk solves m by the exact two-phase walk alone, the
// fallback forced: the reference of the parity tests outside the
// package.
func SolveExactWalk(m *Model) (*Solution, error) {
	return m.SolveOpts(&Options{exactWalk: true})
}

// SolveBland solves m float-first with every walk entering by pure
// Bland's rule, the reference the default rule is held to: how the
// external tests tell which fixtures have a long Bland walk.
func SolveBland(m *Model) (*Solution, error) {
	return m.SolveOpts(&Options{pricing: pricingBland})
}

// BoundRows reports which variables' upper bounds standardize gives a
// row: the ones no <=-row implies.
func BoundRows(m *Model) []bool {
	has := make([]bool, m.NumVars())
	for _, r := range m.standardize(nil).rows {
		if r.conIdx < 0 {
			has[r.boundVar] = true
		}
	}
	return has
}

// NamersRun reports how many namers (Model.NameBy) have run so far, in
// every model of the process.
func NamersRun() int64 { return namersRun.Load() }

// EqualBases reports whether a and b are one basis: the same shape and
// the same entries, in the order encodeBasis writes them.
func EqualBases(a, b *Basis) bool {
	return a.nVars == b.nVars && a.nCons == b.nCons && slices.Equal(a.entries, b.entries)
}

// EmptyHint is a hint of b's shape that names no column: every row is
// left to padding.
func EmptyHint(b *Basis) *Basis { return &Basis{nVars: b.nVars, nCons: b.nCons} }

// hintKinds are the entry kinds a hint byte names, by its value mod 5.
var hintKinds = [...]basisEntry{
	{kind: colStruct},
	{kind: colStruct, neg: true},
	{kind: colSlack},
	{kind: colSlack, bound: true},
	{kind: colSurplus},
}

// hintFromBytes reads any bytes as a warm hint for m, the fuzzer's way
// to name every basis a caller could hand over: the first byte, as an
// int8, is added to both of m's dimensions (0 is m's own shape), and
// each three bytes after it are one entry, a kind (its value mod 5:
// var, neg, slack, bslack, surplus) and a big-endian 16-bit index.
// Trailing bytes short of an entry are ignored.
func hintFromBytes(m *Model, data []byte) *Basis {
	b := &Basis{nVars: m.NumVars(), nCons: m.NumCons()}
	if len(data) == 0 {
		return b
	}
	b.nVars += int(int8(data[0]))
	b.nCons += int(int8(data[0]))
	for data = data[1:]; len(data) >= 3; data = data[3:] {
		e := hintKinds[data[0]%5]
		e.idx = int(data[1])<<8 | int(data[2])
		b.entries = append(b.entries, e)
	}
	return b
}

// hintBytes is b in hintFromBytes's form, for a model of b's shape.
func hintBytes(b *Basis) []byte {
	out := []byte{0}
	for _, e := range b.entries {
		k := slices.IndexFunc(hintKinds[:], func(h basisEntry) bool {
			return h.kind == e.kind && h.neg == e.neg && h.bound == e.bound
		})
		out = append(out, byte(k), byte(e.idx>>8), byte(e.idx))
	}
	return out
}

// BasisRoundTrip installs b, a solve's basis, on m's form and
// reoptimizes, as the certificate of a solve does. The engine's final
// basis, encoded by walking inB, must be the clone-and-sort encoding of
// its basis list, and b; and it must map back to the same columns.
func BasisRoundTrip(m *Model, b *Basis) error {
	s := m.standardize(nil)
	colIdx, ok := mapBasis(s, b, nil)
	if !ok {
		return fmt.Errorf("the solve's own basis does not map")
	}
	e := newEngine[rat.Rat](ratKernel{}, s, m.resolveParams(nil, len(s.rows), len(s.cols)))
	if _, why := e.reoptimize(colIdx); why != "" {
		return fmt.Errorf("the solve's own basis does not reoptimize")
	}
	got, want := encodeBasis(s, e.inB, len(e.basis)), encodeSorted(s, e.basis)
	if !slices.Equal(got.entries, want.entries) || !slices.Equal(got.entries, b.entries) {
		return fmt.Errorf("encoded over inB %v, sorted %v, solved %v", got.entries, want.entries, b.entries)
	}
	back, ok := mapBasis(s, got, nil)
	basic := slices.DeleteFunc(slices.Clone(e.basis), func(j int) bool { return s.cols[j].kind == colArtificial })
	slices.Sort(back)
	slices.Sort(basic)
	if !ok || !slices.Equal(back, basic) {
		return fmt.Errorf("maps back to %v (%v), the engine's basis is %v", back, ok, basic)
	}
	return nil
}
