// Package rat implements exact rational arithmetic for steady-state
// scheduling. Values are immutable; every operation returns a new Rat.
//
// The representation is hybrid: a fast path keeps numerator and
// denominator in int64 and promotes to math/big on overflow, so the
// common case (small platform constants, early simplex pivots) stays
// allocation-free while deep pivot chains remain exact.
//
// The fast path is bookkeeping-light. An overflow check is the high
// word of a 128-bit product, never a divide. A product is cross-reduced
// before it is formed, so it comes out in lowest terms without another
// gcd; a sum reduces only when its denominators share a factor. Cmp
// compares the two cross products in 128 bits instead of building a
// difference. Every result is canonical — d > 0, gcd(|n|, d) == 1 —
// which is what String prints and what fingerprints hash.
package rat

import (
	"cmp"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// Rat is an immutable exact rational number.
//
// The zero value is 0. When b is nil the value is n/d with d > 0 and
// gcd(|n|, d) == 1 (d == 0 is interpreted as the zero value 0/1).
// When b is non-nil it holds the canonical value and n, d are unused.
type Rat struct {
	n, d int64
	b    *big.Rat
}

// Zero returns 0.
func Zero() Rat { return Rat{} }

// One returns 1.
func One() Rat { return Rat{n: 1, d: 1} }

// FromInt returns v as a rational.
func FromInt(v int64) Rat { return Rat{n: v, d: 1} }

// New returns num/den. It panics if den == 0.
func New(num, den int64) Rat {
	if den == 0 {
		panic("rat: zero denominator")
	}
	if den < 0 {
		// Guard against MinInt64 negation overflow.
		if num == math.MinInt64 || den == math.MinInt64 {
			b := new(big.Rat).SetFrac(big.NewInt(num), big.NewInt(den))
			return fromBig(b)
		}
		num, den = -num, -den
	}
	return normSmall(num, den)
}

// FromBig returns a Rat holding the value of b (which is copied).
func FromBig(b *big.Rat) Rat {
	return fromBig(new(big.Rat).Set(b))
}

// fromBig adopts b (no copy) and demotes to the small form when possible.
func fromBig(b *big.Rat) Rat {
	if b.Num().IsInt64() && b.Denom().IsInt64() {
		return Rat{n: b.Num().Int64(), d: b.Denom().Int64()}
	}
	return Rat{b: b}
}

// normSmall reduces num/den (den > 0) to lowest terms.
func normSmall(num, den int64) Rat {
	if num == 0 {
		return Rat{}
	}
	if g := gcdDen(num, den); g != 1 {
		num, den = num/g, den/g
	}
	return Rat{n: num, d: den}
}

// gcdDen returns gcd(|x|, den) for den > 0. It is at most den, so it
// fits int64 even when x is MinInt64, whose magnitude 2⁶³ does not.
func gcdDen(x, den int64) int64 {
	if den == 1 {
		return 1
	}
	ux := uint64(x)
	if x < 0 {
		ux = -ux
	}
	return int64(gcd64(ux, uint64(den)))
}

// gcd64 is the binary gcd; gcd(0, b) is b. The loop keeps a odd and
// replaces (a, b) by (min, |a−b|) without a branch to mispredict.
func gcd64(a, b uint64) uint64 {
	if a == 0 || b == 0 {
		return a | b
	}
	shift := bits.TrailingZeros64(a | b)
	a >>= bits.TrailingZeros64(a)
	for b != 0 {
		b >>= bits.TrailingZeros64(b)
		a, b = min(a, b), max(a, b)-min(a, b)
	}
	return a << shift
}

// den returns the denominator of the small form, mapping the zero
// value's 0 to 1.
func (x Rat) den() int64 {
	if x.d == 0 {
		return 1
	}
	return x.d
}

// Big returns the value as a newly allocated big.Rat.
func (x Rat) Big() *big.Rat {
	if x.b != nil {
		return new(big.Rat).Set(x.b)
	}
	return big.NewRat(x.n, x.den())
}

// bigRef returns a big.Rat view without copying when already big.
func (x Rat) bigRef() *big.Rat {
	if x.b != nil {
		return x.b
	}
	return big.NewRat(x.n, x.den())
}

// Num returns the numerator as a big.Int.
func (x Rat) Num() *big.Int {
	if x.b != nil {
		return new(big.Int).Set(x.b.Num())
	}
	return big.NewInt(x.n)
}

// Den returns the denominator (always positive) as a big.Int.
func (x Rat) Den() *big.Int {
	if x.b != nil {
		return new(big.Int).Set(x.b.Denom())
	}
	return big.NewInt(x.den())
}

// Small reports the value as int64 numerator/denominator when it fits.
func (x Rat) Small() (num, den int64, ok bool) {
	if x.b != nil {
		return 0, 0, false
	}
	return x.n, x.den(), true
}

// mul128 returns a·b as a signed 128-bit value: the unsigned product's
// high word, less b when a is negative and a when b is.
func mul128(a, b int64) (hi int64, lo uint64) {
	h, l := bits.Mul64(uint64(a), uint64(b))
	h -= uint64(a>>63)&uint64(b) + uint64(b>>63)&uint64(a)
	return int64(h), l
}

// mulOvf multiplies with overflow detection: the product fits iff its
// high word is the sign extension of its low one.
func mulOvf(a, b int64) (int64, bool) {
	hi, lo := mul128(a, b)
	return int64(lo), hi == int64(lo)>>63
}

// addOvf adds with overflow detection.
func addOvf(a, b int64) (int64, bool) {
	r := a + b
	if (a > 0 && b > 0 && r < 0) || (a < 0 && b < 0 && r >= 0) {
		return 0, false
	}
	return r, true
}

// Add returns x + y.
func (x Rat) Add(y Rat) Rat {
	if x.b == nil && y.b == nil {
		// A nonzero small form has d >= 1; only the zero value has d == 0.
		switch {
		case x.n == 0:
			return y
		case y.n == 0:
			return x
		case x.d == y.d:
			if num, ok := addOvf(x.n, y.n); ok {
				if x.d == 1 {
					return Rat{n: num, d: 1}
				}
				return normSmall(num, x.d)
			}
		default:
			// Reduce cross terms by g = gcd(x.d, y.d) to delay overflow.
			// With g == 1 the sum is already in lowest terms: a prime of
			// x.d divides y.n·x.d but neither x.n nor y.d, so not the
			// sum x.n·y.d + y.n·x.d; the same holds for a prime of y.d.
			g := gcdDen(x.d, y.d)
			xdg, ydg := x.d, y.d
			if g != 1 {
				xdg, ydg = x.d/g, y.d/g
			}
			if n1, ok := mulOvf(x.n, ydg); ok {
				if n2, ok := mulOvf(y.n, xdg); ok {
					if num, ok := addOvf(n1, n2); ok {
						if den, ok := mulOvf(xdg, y.d); ok {
							if g == 1 {
								return Rat{n: num, d: den}
							}
							return normSmall(num, den)
						}
					}
				}
			}
		}
	}
	return fromBig(new(big.Rat).Add(x.bigRef(), y.bigRef()))
}

// Sub returns x - y.
func (x Rat) Sub(y Rat) Rat { return x.Add(y.Neg()) }

// Neg returns -x.
func (x Rat) Neg() Rat {
	if x.b == nil {
		if x.n == math.MinInt64 {
			return fromBig(new(big.Rat).Neg(x.bigRef()))
		}
		return Rat{n: -x.n, d: x.d}
	}
	return fromBig(new(big.Rat).Neg(x.b))
}

// Mul returns x * y.
func (x Rat) Mul(y Rat) Rat {
	if x.b == nil && y.b == nil {
		if x.n == 0 || y.n == 0 {
			return Rat{}
		}
		if x.d == 1 && y.d == 1 {
			if num, ok := mulOvf(x.n, y.n); ok {
				return Rat{n: num, d: 1}
			}
		} else {
			// Cross-reduce before multiplying: it delays overflow, and
			// it leaves xn·yn coprime to xd·yd, since each factor of the
			// numerator is now coprime to both factors of the denominator.
			xn, yd := x.n, y.d
			if g := gcdDen(xn, yd); g != 1 {
				xn, yd = xn/g, yd/g
			}
			yn, xd := y.n, x.d
			if g := gcdDen(yn, xd); g != 1 {
				yn, xd = yn/g, xd/g
			}
			if num, ok := mulOvf(xn, yn); ok {
				if den, ok := mulOvf(xd, yd); ok {
					return Rat{n: num, d: den}
				}
			}
		}
	}
	return fromBig(new(big.Rat).Mul(x.bigRef(), y.bigRef()))
}

// Div returns x / y. It panics if y == 0.
func (x Rat) Div(y Rat) Rat {
	return x.Mul(y.Inv())
}

// Inv returns 1/x. It panics if x == 0.
func (x Rat) Inv() Rat {
	if x.IsZero() {
		panic("rat: division by zero")
	}
	if x.b == nil {
		n, d := x.n, x.den()
		if n < 0 {
			if n == math.MinInt64 {
				return fromBig(new(big.Rat).Inv(x.bigRef()))
			}
			return Rat{n: -d, d: -n}
		}
		return Rat{n: d, d: n}
	}
	return fromBig(new(big.Rat).Inv(x.b))
}

// Abs returns |x|.
func (x Rat) Abs() Rat {
	if x.Sign() < 0 {
		return x.Neg()
	}
	return x
}

// Sign returns -1, 0 or +1.
func (x Rat) Sign() int {
	if x.b != nil {
		return x.b.Sign()
	}
	switch {
	case x.n > 0:
		return 1
	case x.n < 0:
		return -1
	}
	return 0
}

// IsZero reports whether x == 0.
func (x Rat) IsZero() bool { return x.Sign() == 0 }

// IsOne reports whether x == 1.
func (x Rat) IsOne() bool {
	if x.b != nil {
		return x.b.Cmp(oneBig) == 0
	}
	return x.n == 1 && x.den() == 1
}

var oneBig = big.NewRat(1, 1)

// Cmp compares x and y, returning -1, 0 or +1.
func (x Rat) Cmp(y Rat) int {
	if x.b == nil && y.b == nil {
		xd, yd := x.den(), y.den()
		if xd == yd {
			return cmp.Compare(x.n, y.n)
		}
		// Denominators are positive: x < y iff x.n·yd < y.n·xd.
		ph, pl := mul128(x.n, yd)
		qh, ql := mul128(y.n, xd)
		if ph != qh {
			return cmp.Compare(ph, qh)
		}
		return cmp.Compare(pl, ql)
	}
	return x.Sub(y).Sign()
}

// Equal reports x == y.
func (x Rat) Equal(y Rat) bool { return x.Cmp(y) == 0 }

// Less reports x < y.
func (x Rat) Less(y Rat) bool { return x.Cmp(y) < 0 }

// LessEq reports x <= y.
func (x Rat) LessEq(y Rat) bool { return x.Cmp(y) <= 0 }

// Min returns the smaller of x and y.
func Min(x, y Rat) Rat {
	if x.Cmp(y) <= 0 {
		return x
	}
	return y
}

// Max returns the larger of x and y.
func Max(x, y Rat) Rat {
	if x.Cmp(y) >= 0 {
		return x
	}
	return y
}

// Sum returns the sum of xs (0 for an empty slice).
func Sum(xs ...Rat) Rat {
	s := Zero()
	for _, x := range xs {
		s = s.Add(x)
	}
	return s
}

// Float64 returns the nearest float64 value.
func (x Rat) Float64() float64 {
	// Below 2^53 both int64 -> float64 conversions are exact, and IEEE
	// division rounds the exact quotient to nearest-even: the value
	// big.Rat.Float64 returns, without allocating one.
	const exact = 1 << 53
	if x.b == nil && -exact < x.n && x.n < exact && x.d < exact {
		return float64(x.n) / float64(x.den())
	}
	f, _ := x.bigRef().Float64()
	return f
}

// IsInt reports whether x is an integer.
func (x Rat) IsInt() bool {
	if x.b != nil {
		return x.b.IsInt()
	}
	return x.den() == 1
}

// Floor returns the largest integer <= x, as a big.Int.
func (x Rat) Floor() *big.Int {
	num, den := x.Num(), x.Den()
	q, m := new(big.Int).QuoRem(num, den, new(big.Int))
	if m.Sign() < 0 {
		q.Sub(q, big.NewInt(1))
	}
	return q
}

// FloorInt64 returns Floor as an int64 (ok=false on overflow).
func (x Rat) FloorInt64() (int64, bool) {
	f := x.Floor()
	if !f.IsInt64() {
		return 0, false
	}
	return f.Int64(), true
}

// AppendText implements encoding.TextAppender: it appends x as "n" or
// "n/d" — the one definition of the text form, which String,
// MarshalText and every renderer that writes rationals into a buffer
// share — and never fails.
func (x Rat) AppendText(b []byte) ([]byte, error) {
	if x.b != nil {
		return x.b.AppendText(b)
	}
	b = strconv.AppendInt(b, x.n, 10)
	if d := x.den(); d != 1 {
		b = append(b, '/')
		b = strconv.AppendInt(b, d, 10)
	}
	return b, nil
}

// String formats x as "n" or "n/d".
func (x Rat) String() string {
	var buf [2*20 + 1]byte // two int64s and the slash
	b, _ := x.AppendText(buf[:0])
	return string(b)
}

// MarshalText implements encoding.TextMarshaler.
func (x Rat) MarshalText() ([]byte, error) { return x.AppendText(nil) }

// UnmarshalText implements encoding.TextUnmarshaler, accepting the
// formats produced by String as well as big.Rat's "n/d".
func (x *Rat) UnmarshalText(text []byte) error {
	r, err := Parse(string(text))
	if err != nil {
		return err
	}
	*x = r
	return nil
}

// Parse parses "n", "n/d" or a decimal like "1.5": everything
// big.Rat.SetString accepts, with the same value.
func Parse(s string) (Rat, error) {
	if r, ok := parseSmall(s); ok {
		return r, nil
	}
	b, ok := new(big.Rat).SetString(s)
	if !ok {
		return Rat{}, fmt.Errorf("rat: cannot parse %q", s)
	}
	return fromBig(b), nil
}

// parseSmall parses what platform files are made of without a big.Rat:
// "-?digits" and "-?digits/digits" in plain decimal whose parts fit
// int64. Everything else is left to big.Rat — a '+', a decimal point
// or exponent, a zero or missing denominator, and any part with a
// leading zero, which SetString reads as an octal prefix in a fraction.
func parseSmall(s string) (Rat, bool) {
	neg := s != "" && s[0] == '-'
	if neg {
		s = s[1:]
	}
	num, rest, ok := parseDigits(s)
	if !ok {
		return Rat{}, false
	}
	den := int64(1)
	if rest != "" {
		if rest[0] != '/' {
			return Rat{}, false
		}
		den, rest, ok = parseDigits(rest[1:])
		if !ok || rest != "" || den == 0 {
			return Rat{}, false
		}
	}
	if neg {
		num = -num
	}
	g := gcdDen(num, den) // 0/d comes out 0/1, as fromBig has it
	return Rat{n: num / g, d: den / g}, true
}

// parseDigits reads the decimal digits s starts with, returning their
// value and what follows them. ok is false when there are none, when a
// second digit follows a leading zero, or when the value overflows.
func parseDigits(s string) (v int64, rest string, ok bool) {
	i := 0
	for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
		d := int64(s[i] - '0')
		if v > (math.MaxInt64-d)/10 {
			return 0, "", false
		}
		v = v*10 + d
	}
	if i == 0 || (i > 1 && s[0] == '0') {
		return 0, "", false
	}
	return v, s[i:], true
}

// MustParse is Parse that panics on error; intended for constants.
func MustParse(s string) Rat {
	r, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return r
}

// ApproxFloat returns the best rational approximation of f with
// denominator at most maxDen, using continued fractions. It is used to
// feed measured (floating-point) resource speeds into the exact LP.
// It panics if f is NaN or infinite or maxDen < 1.
func ApproxFloat(f float64, maxDen int64) Rat {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		panic("rat: cannot approximate non-finite float")
	}
	if maxDen < 1 {
		panic("rat: maxDen must be >= 1")
	}
	neg := f < 0
	if neg {
		f = -f
	}
	// Continued fraction expansion with convergents p/q.
	var (
		p0, q0 int64 = 0, 1
		p1, q1 int64 = 1, 0
		x            = f
	)
	for i := 0; i < 64; i++ {
		a := int64(math.Floor(x))
		p2, ok1 := mulOvf(a, p1)
		q2, ok2 := mulOvf(a, q1)
		if !ok1 || !ok2 {
			break
		}
		p2, ok1 = addOvf(p2, p0)
		q2, ok2 = addOvf(q2, q0)
		if !ok1 || !ok2 {
			break
		}
		if q2 > maxDen {
			break
		}
		p0, q0, p1, q1 = p1, q1, p2, q2
		frac := x - math.Floor(x)
		if frac < 1e-15 {
			break
		}
		x = 1 / frac
	}
	if q1 == 0 {
		p1, q1 = 0, 1
	}
	if neg {
		p1 = -p1
	}
	return New(p1, q1)
}

// DenLCM returns the least common multiple of the denominators of xs
// (1 for an empty slice). It is the period constructor of §4.1: any
// x in xs times the result is an integer.
func DenLCM(xs ...Rat) *big.Int {
	l := big.NewInt(1)
	g := new(big.Int)
	t := new(big.Int)
	for _, x := range xs {
		d := x.Den()
		g.GCD(nil, nil, l, d)
		t.Div(d, g)
		l.Mul(l, t)
	}
	return l
}

// ScaleInt returns x*s as a big.Int when the product is integral.
func ScaleInt(x Rat, s *big.Int) (*big.Int, bool) {
	num := x.Num()
	num.Mul(num, s)
	den := x.Den()
	q, m := new(big.Int).QuoRem(num, den, new(big.Int))
	if m.Sign() != 0 {
		return nil, false
	}
	return q, true
}

// MulBigInt returns x * s exactly.
func (x Rat) MulBigInt(s *big.Int) Rat {
	b := new(big.Rat).SetInt(s)
	return fromBig(b.Mul(b, x.bigRef()))
}
