package lp

import (
	"math"
	"slices"

	"repro/pkg/steady/rat"
)

// entry is one nonzero of a sparse column or eta factor: the
// coefficient v at row position row.
type entry[T any] struct {
	row int
	v   T
}

// eta is one product-form factor of the basis inverse: the elementary
// matrix that differs from the identity only in column r (diagonal
// diag = 1/pivot, off-diagonals nz = -w_i/pivot). w is the column
// FTRANed through the factors before it — for a column of the
// triangular part of a refactorization, the column itself.
type eta[T any] struct {
	r    int
	diag T
	nz   []entry[T]
}

// kernel is everything engine[T] needs to know about its number type:
// the numeric loops over whole vectors, and the judgments (is this
// zero, which is smaller, is this pivot usable) that exact rationals
// answer exactly and float64 answers within a tolerance. It holds no
// pivoting decision — which column enters, which row leaves, when to
// refactor are the engine's, written once for both kernels.
//
// Every loop that runs over an eta file or a column is one kernel call
// per vector, not one per scalar: a generic loop that reaches T's
// arithmetic through a method or an ops type parameter runs 2.7–3x
// slower than the plain float64 loop (go1.24, FTRAN-shaped), and the
// float search is about a third of a cold request. An FTRANed column
// is dense storage read sparsely: nonzeros lists its rows once, in
// ascending order, and newEta, step and pickRow (and the engine's
// ratio test) walk that list instead of all m rows — on the platform
// LPs a fifth to a third of them.
type kernel[T any] interface {
	// load returns the form's columns and right-hand side as T. The
	// engine never writes through either, so they may alias s; a kernel
	// that copies them reuses what an earlier load returned: nz, the
	// block the columns are carved from, cols and b. One that copies
	// stops early, with a load nobody may read, once stop is closed.
	load(s *stdForm, nz []entry[T], cols [][]entry[T], b []T, stop <-chan struct{}) ([]entry[T], [][]entry[T], []T)
	conv(v rat.Rat) T

	ftran(etas []eta[T], x []T) // x <- B^-1 x
	btran(etas []eta[T], y []T) // y <- y B^-1
	// nonzeros appends the rows where w is not exactly zero to into,
	// ascending. It is the one pass over all of an FTRANed column: the
	// three methods below walk the list it returns.
	nonzeros(w []T, into []int) []int
	// newEta is the factor of a column w, nonzero on rows nz, pivoting
	// on row r. Its entries are appended to off, which has room for them.
	newEta(r int, w []T, nz []int, off []entry[T]) eta[T]
	dot(col []entry[T], y []T) T
	reducedCost(cj T, col []entry[T], y []T) T // cj - y . col
	// step moves the basic values along entering direction w (nonzero
	// on rows nz) by theta: xB -= theta*w off row r, xB[r] = theta.
	step(xB []T, r int, theta T, w []T, nz []int)
	div(a, b T) T

	sign(v T) int             // 0 within tolerance of zero
	cmp(a, b T) int           // 0 within tolerance of each other
	less(a, b T) bool         // strict, no tolerance
	pivotOK(v T) bool         // large enough to divide by
	feasible(art, b []T) bool // phase-1 residuals art vanish against rhs b
	// pickRow chooses the row a refactored column w (nonzero on rows nz)
	// is assigned to among the free ones, basis[i] < 0, or -1 when none
	// is usable. It is the one place the kernels diverge for stability
	// rather than tolerance: the first nonzero serves a rational, a
	// float wants the largest magnitude. No pivoting decision reads row
	// positions, so the walks still agree.
	pickRow(w []T, nz []int, basis []int) int
}

// --- exact rationals ---------------------------------------------------

type ratKernel struct{}

func (ratKernel) load(s *stdForm, nz []entry[rat.Rat], cols [][]entry[rat.Rat], _ []rat.Rat, _ <-chan struct{}) ([]entry[rat.Rat], [][]entry[rat.Rat], []rat.Rat) {
	cols = slices.Grow(cols[:0], len(s.cols))[:len(s.cols)]
	for j := range s.cols {
		cols[j] = s.cols[j].nz
	}
	return nz, cols, s.b
}

func (ratKernel) conv(v rat.Rat) rat.Rat { return v }

func (ratKernel) ftran(etas []eta[rat.Rat], x []rat.Rat) {
	for k := range etas {
		E := &etas[k]
		xr := x[E.r]
		if xr.IsZero() {
			continue
		}
		for _, en := range E.nz {
			x[en.row] = x[en.row].Add(en.v.Mul(xr))
		}
		x[E.r] = xr.Mul(E.diag)
	}
}

func (ratKernel) btran(etas []eta[rat.Rat], y []rat.Rat) {
	for k := len(etas) - 1; k >= 0; k-- {
		E := &etas[k]
		v := y[E.r].Mul(E.diag)
		for _, en := range E.nz {
			if !y[en.row].IsZero() {
				v = v.Add(y[en.row].Mul(en.v))
			}
		}
		y[E.r] = v
	}
}

func (ratKernel) nonzeros(w []rat.Rat, into []int) []int {
	for i := range w {
		if !w[i].IsZero() {
			into = append(into, i)
		}
	}
	return into
}

func (ratKernel) newEta(r int, w []rat.Rat, nz []int, off []entry[rat.Rat]) eta[rat.Rat] {
	diag := w[r].Inv()
	for _, i := range nz {
		if i != r {
			off = append(off, entry[rat.Rat]{row: i, v: w[i].Mul(diag).Neg()})
		}
	}
	return eta[rat.Rat]{r: r, diag: diag, nz: off}
}

func (ratKernel) dot(col []entry[rat.Rat], y []rat.Rat) rat.Rat {
	d := rat.Zero()
	for _, en := range col {
		if !y[en.row].IsZero() {
			d = d.Add(y[en.row].Mul(en.v))
		}
	}
	return d
}

func (ratKernel) reducedCost(cj rat.Rat, col []entry[rat.Rat], y []rat.Rat) rat.Rat {
	for _, en := range col {
		if !y[en.row].IsZero() {
			cj = cj.Sub(y[en.row].Mul(en.v))
		}
	}
	return cj
}

func (ratKernel) step(xB []rat.Rat, r int, theta rat.Rat, w []rat.Rat, nz []int) {
	for _, i := range nz {
		if i != r {
			xB[i] = xB[i].Sub(theta.Mul(w[i]))
		}
	}
	xB[r] = theta
}

func (ratKernel) div(a, b rat.Rat) rat.Rat { return a.Div(b) }
func (ratKernel) sign(v rat.Rat) int       { return v.Sign() }
func (ratKernel) cmp(a, b rat.Rat) int     { return a.Cmp(b) }
func (ratKernel) less(a, b rat.Rat) bool   { return a.Less(b) }
func (ratKernel) pivotOK(v rat.Rat) bool   { return !v.IsZero() }

func (ratKernel) feasible(art, _ []rat.Rat) bool {
	return rat.Sum(art...).IsZero()
}

func (ratKernel) pickRow(_ []rat.Rat, nz []int, basis []int) int {
	for _, i := range nz {
		if basis[i] < 0 {
			return i
		}
	}
	return -1
}

// --- float64 -----------------------------------------------------------

const (
	// ffEps is the float kernel's zero threshold for reduced costs,
	// ratio-test comparisons and degenerate-row detection. The platform
	// LPs keep coefficients within a few orders of magnitude of 1, so an
	// absolute tolerance works.
	ffEps = 1e-9
	// ffPivTol is the smallest pivot magnitude the float kernel accepts;
	// below it the basis counts as numerically singular and the solve
	// goes to the exact engine.
	ffPivTol = 1e-11
	// ffFeasTol bounds the phase-1 artificial residual (relative to the
	// right-hand side) the float search accepts as feasible. The exact
	// certificate re-checks feasibility anyway; this only decides which
	// instantiation finishes.
	ffFeasTol = 1e-7
)

type floatKernel struct{}

func (floatKernel) load(s *stdForm, nz []entry[float64], cols [][]entry[float64], b []float64, stop <-chan struct{}) ([]entry[float64], [][]entry[float64], []float64) {
	total := 0
	for j := range s.cols {
		total += len(s.cols[j].nz)
	}
	nz = slices.Grow(nz[:0], total) // one backing array for every column
	cols = slices.Grow(cols[:0], len(s.cols))[:len(s.cols)]
	for j := range s.cols {
		if j%pollEvery == 0 && closed(stop) {
			return nz, cols, b
		}
		from := len(nz)
		for _, en := range s.cols[j].nz {
			nz = append(nz, entry[float64]{row: en.row, v: en.v.Float64()})
		}
		cols[j] = nz[from:len(nz):len(nz)]
	}
	b = slices.Grow(b[:0], len(s.b))
	for _, v := range s.b {
		b = append(b, v.Float64())
	}
	return nz, cols, b
}

func (floatKernel) conv(v rat.Rat) float64 { return v.Float64() }

func (floatKernel) ftran(etas []eta[float64], x []float64) {
	for k := range etas {
		E := &etas[k]
		xr := x[E.r]
		if xr == 0 {
			continue
		}
		for _, en := range E.nz {
			x[en.row] += float64(en.v * xr)
		}
		x[E.r] = xr * E.diag
	}
}

func (floatKernel) btran(etas []eta[float64], y []float64) {
	for k := len(etas) - 1; k >= 0; k-- {
		E := &etas[k]
		v := y[E.r] * E.diag
		for _, en := range E.nz {
			if y[en.row] != 0 {
				v += float64(y[en.row] * en.v)
			}
		}
		y[E.r] = v
	}
}

func (floatKernel) nonzeros(w []float64, into []int) []int {
	for i, v := range w {
		if v != 0 {
			into = append(into, i)
		}
	}
	return into
}

func (floatKernel) newEta(r int, w []float64, nz []int, off []entry[float64]) eta[float64] {
	diag := 1 / w[r]
	for _, i := range nz {
		if i != r {
			off = append(off, entry[float64]{row: i, v: -w[i] * diag})
		}
	}
	return eta[float64]{r: r, diag: diag, nz: off}
}

func (floatKernel) dot(col []entry[float64], y []float64) float64 {
	d := 0.0
	for _, en := range col {
		d += float64(y[en.row] * en.v)
	}
	return d
}

func (floatKernel) reducedCost(cj float64, col []entry[float64], y []float64) float64 {
	for _, en := range col {
		cj -= float64(y[en.row] * en.v)
	}
	return cj
}

func (floatKernel) step(xB []float64, r int, theta float64, w []float64, nz []int) {
	for _, i := range nz {
		if i != r {
			xB[i] -= float64(theta * w[i])
		}
	}
	xB[r] = theta
}

func (floatKernel) div(a, b float64) float64 { return a / b }

func (floatKernel) sign(v float64) int {
	switch {
	case v > ffEps:
		return 1
	case v < -ffEps:
		return -1
	}
	return 0
}

func (floatKernel) cmp(a, b float64) int {
	switch {
	case a < b-ffEps:
		return -1
	case a > b+ffEps:
		return 1
	}
	return 0
}

func (floatKernel) less(a, b float64) bool { return a < b }
func (floatKernel) pivotOK(v float64) bool { return math.Abs(v) >= ffPivTol }

func (floatKernel) feasible(art, b []float64) bool {
	scale, sum := 1.0, 0.0
	for _, v := range b {
		scale += math.Abs(v)
	}
	for _, v := range art {
		sum += math.Abs(v)
	}
	return sum <= ffFeasTol*scale
}

func (floatKernel) pickRow(w []float64, nz []int, basis []int) int {
	r, best := -1, ffPivTol
	for _, i := range nz {
		if basis[i] < 0 {
			if a := math.Abs(w[i]); a > best {
				r, best = i, a
			}
		}
	}
	return r
}
