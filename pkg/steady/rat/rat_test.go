package rat

import (
	"math"
	"math/big"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// ref mirrors a Rat into a pure big.Rat for reference computation.
func ref(x Rat) *big.Rat { return x.Big() }

// arb builds a Rat (sometimes deliberately overflow-prone) from raw ints.
func arb(n, d int64) Rat {
	if d == 0 {
		d = 1
	}
	return New(n, d)
}

func TestZeroValue(t *testing.T) {
	var z Rat
	if !z.IsZero() {
		t.Fatalf("zero value not zero: %v", z)
	}
	if got := z.Add(One()); !got.IsOne() {
		t.Fatalf("0+1 = %v", got)
	}
	if z.String() != "0" {
		t.Fatalf("zero String = %q", z.String())
	}
	if !z.IsInt() {
		t.Fatal("zero not integer")
	}
}

func TestNewNormalization(t *testing.T) {
	cases := []struct {
		n, d int64
		want string
	}{
		{6, 4, "3/2"},
		{-6, 4, "-3/2"},
		{6, -4, "-3/2"},
		{-6, -4, "3/2"},
		{0, 7, "0"},
		{7, 7, "1"},
		{7, 1, "7"},
		{math.MinInt64, -1, "9223372036854775808"},
	}
	for _, c := range cases {
		if got := New(c.n, c.d).String(); got != c.want {
			t.Errorf("New(%d,%d) = %s, want %s", c.n, c.d, got, c.want)
		}
	}
}

func TestNewPanicsOnZeroDen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1, 0)
}

func TestInvPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Zero().Inv()
}

// bigText is the text form of v: big.Rat's "n/d", or "n" for an integer.
func bigText(v *big.Rat) string {
	if v.IsInt() {
		return v.Num().String()
	}
	return v.String()
}

// checkSame demands that got be want, in the canonical representation:
// the same value and text, and the int64 form (d > 0, lowest terms)
// whenever the value fits it.
func checkSame(t testing.TB, what string, got Rat, want *big.Rat) {
	t.Helper()
	if got.Big().Cmp(want) != 0 {
		t.Fatalf("%s = %v, want %v", what, got, bigText(want))
	}
	if s := got.String(); s != bigText(want) {
		t.Fatalf("%s prints %q, want %q (%#v)", what, s, bigText(want), got)
	}
	if !want.Num().IsInt64() || !want.Denom().IsInt64() {
		return
	}
	if got.b != nil {
		t.Fatalf("%s = %v is in big form, it fits int64", what, got)
	}
	if got.d < 0 || (got.d == 0 && got.n != 0) {
		t.Fatalf("%s = %#v: denominator not positive", what, got)
	}
}

// checkArith checks every arithmetic and comparison of a and b against
// big.Rat.
func checkArith(t testing.TB, a, b Rat) {
	t.Helper()
	ra, rb := ref(a), ref(b)
	checkSame(t, a.String()+" + "+b.String(), a.Add(b), new(big.Rat).Add(ra, rb))
	checkSame(t, a.String()+" - "+b.String(), a.Sub(b), new(big.Rat).Sub(ra, rb))
	checkSame(t, a.String()+" * "+b.String(), a.Mul(b), new(big.Rat).Mul(ra, rb))
	checkSame(t, "-("+a.String()+")", a.Neg(), new(big.Rat).Neg(ra))
	if !b.IsZero() {
		checkSame(t, a.String()+" / "+b.String(), a.Div(b), new(big.Rat).Quo(ra, rb))
		checkSame(t, "1/("+b.String()+")", b.Inv(), new(big.Rat).Inv(rb))
	}
	want := ra.Cmp(rb)
	if got := a.Cmp(b); got != want {
		t.Fatalf("Cmp(%v, %v) = %d, want %d", a, b, got, want)
	}
	if got := b.Cmp(a); got != -want {
		t.Fatalf("Cmp(%v, %v) = %d, want %d", b, a, got, -want)
	}
	if a.Equal(b) != (want == 0) || a.Less(b) != (want < 0) {
		t.Fatalf("Equal/Less(%v, %v) disagree with Cmp %d", a, b, want)
	}
}

func TestArithmeticMatchesBigRat(t *testing.T) {
	// Uniform int64 pairs: almost every sum and product overflows into
	// big.Rat.
	f := func(an, ad, bn, bd int64) bool {
		checkArith(t, arb(an, ad), arb(bn, bd))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// Parts under 2²⁰, a third of them over one denominator and a third
	// integers: the int64 fast paths, where results must stay small.
	rng := rand.New(rand.NewSource(20))
	part := func() int64 { return rng.Int63n(1 << 20) }
	for i := 0; i < 20000; i++ {
		an, bn := part()-1<<19, part()-1<<19
		ad, bd := part()+1, part()+1
		switch i % 3 {
		case 1:
			bd = ad
		case 2:
			ad, bd = 1, 1
		}
		checkArith(t, New(an, ad), New(bn, bd))
	}
}

// TestMinInt64StaysCanonical pins the values whose numerator is -2⁶³,
// the one int64 with no int64 magnitude: each must keep a positive
// denominator, its sign and big.Rat's text.
func TestMinInt64StaysCanonical(t *testing.T) {
	check := func(what string, got Rat, want *big.Rat) {
		t.Helper()
		if got.b == nil && got.d <= 0 {
			t.Errorf("%s = %#v: denominator not positive", what, got)
		}
		if got.Sign() != want.Sign() {
			t.Errorf("%s: Sign %d, want %d", what, got.Sign(), want.Sign())
		}
		if got.String() != bigText(want) {
			t.Errorf("%s prints %q, want %q", what, got.String(), bigText(want))
		}
	}
	minInt := big.NewInt(math.MinInt64)
	for _, d := range []int64{3, 6, 10, 14, 18, 22, 30} {
		check("New(MinInt64, "+big.NewInt(d).String()+")", New(math.MinInt64, d), new(big.Rat).SetFrac(minInt, big.NewInt(d)))
	}
	check("FromInt(MinInt64).Mul(New(1, 6))", FromInt(math.MinInt64).Mul(New(1, 6)), new(big.Rat).SetFrac(minInt, big.NewInt(6)))
}

// FuzzArithMatchesBig searches small-form operand pairs for an
// operation whose result differs from big.Rat's in value, in text, or
// in representation.
func FuzzArithMatchesBig(f *testing.F) {
	const (
		p31 = int64(1) << 31
		p62 = int64(1) << 62
	)
	for _, s := range [][4]int64{
		{0, 1, 0, 1}, {0, 1, 5, 7}, {1, 1, -1, 1}, {-1, 3, 1, 3},
		{math.MinInt64, 1, 1, 1}, {math.MinInt64, 1, -1, 1}, {math.MinInt64, 6, 1, 1}, {math.MinInt64, 3, 1, 6},
		{math.MaxInt64, 1, math.MaxInt64, 1}, {math.MaxInt64, 2, 1, math.MaxInt64}, {math.MaxInt64, 3, -1, 3},
		{p31, 1, p31, 1}, {p31, 3, p31, 5}, {p62, 1, 2, 1}, {p62, 1, -2, 1}, {-p62, 3, 2, 5}, {p62, 3, -2, 5},
		{5, 12, 7, 12}, {1, 6, 1, 6}, {7, 1, -12, 1}, {2, 3, 3, 4}, {3, -6, 4, 10},
	} {
		f.Add(s[0], s[1], s[2], s[3])
	}
	f.Fuzz(func(t *testing.T, n1, d1, n2, d2 int64) {
		a, b := arb(n1, d1), arb(n2, d2)
		if a.b != nil || b.b != nil {
			return // a value past int64: the big.Rat path, not this one
		}
		checkArith(t, a, b)
	})
}

var (
	sinkRat Rat
	sinkCmp int
)

// TestSmallArithmeticDoesNotAllocate pins the int64 fast paths: over
// distinct, shared and unit denominators, nothing on them allocates.
func TestSmallArithmeticDoesNotAllocate(t *testing.T) {
	for _, p := range [][2]Rat{
		{New(355, 113), New(-22, 7)},
		{New(5, 12), New(7, 12)},
		{FromInt(6), FromInt(-9)},
		{New(2, 3), New(9, 4)},
	} {
		x, y := p[0], p[1]
		for name, op := range map[string]func(){
			"Add": func() { sinkRat = x.Add(y) },
			"Sub": func() { sinkRat = x.Sub(y) },
			"Mul": func() { sinkRat = x.Mul(y) },
			"Cmp": func() { sinkCmp = x.Cmp(y) },
		} {
			if n := testing.AllocsPerRun(100, op); n != 0 {
				t.Errorf("%v %s %v: %.0f allocations", x, name, y, n)
			}
		}
	}
}

func TestOverflowPromotion(t *testing.T) {
	big1 := New(math.MaxInt64, 3)
	big2 := New(math.MaxInt64-4, 5)
	prod := big1.Mul(big2)
	want := new(big.Rat).Mul(big1.Big(), big2.Big())
	if prod.Big().Cmp(want) != 0 {
		t.Fatalf("promoted mul wrong: %v vs %v", prod, want)
	}
	sum := big1.Add(big2)
	wantS := new(big.Rat).Add(big1.Big(), big2.Big())
	if sum.Big().Cmp(wantS) != 0 {
		t.Fatalf("promoted add wrong: %v vs %v", sum, wantS)
	}
	// Deep chain stays exact and demotes when it can.
	x := New(1, 3)
	for i := 0; i < 200; i++ {
		x = x.Mul(New(7, 5)).Add(New(1, 9))
	}
	y := big.NewRat(1, 3)
	for i := 0; i < 200; i++ {
		y.Mul(y, big.NewRat(7, 5))
		y.Add(y, big.NewRat(1, 9))
	}
	if x.Big().Cmp(y) != 0 {
		t.Fatal("long chain diverged from big.Rat reference")
	}
}

func TestFieldAxioms(t *testing.T) {
	f := func(an, ad, bn, bd, cn, cd int64) bool {
		a, b, c := arb(an, ad), arb(bn, bd), arb(cn, cd)
		// Associativity and commutativity.
		if !a.Add(b).Add(c).Equal(a.Add(b.Add(c))) {
			return false
		}
		if !a.Mul(b).Mul(c).Equal(a.Mul(b.Mul(c))) {
			return false
		}
		if !a.Add(b).Equal(b.Add(a)) || !a.Mul(b).Equal(b.Mul(a)) {
			return false
		}
		// Distributivity.
		if !a.Mul(b.Add(c)).Equal(a.Mul(b).Add(a.Mul(c))) {
			return false
		}
		// Inverses.
		if !a.Sub(a).IsZero() {
			return false
		}
		if !a.IsZero() && !a.Div(a).IsOne() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Fatal(err)
	}
}

func TestOrdering(t *testing.T) {
	f := func(an, ad, bn, bd int64) bool {
		a, b := arb(an, ad), arb(bn, bd)
		switch a.Cmp(b) {
		case -1:
			return a.Less(b) && a.LessEq(b) && !a.Equal(b) && Max(a, b).Equal(b) && Min(a, b).Equal(a)
		case 0:
			return !a.Less(b) && a.LessEq(b) && a.Equal(b)
		case 1:
			return !a.Less(b) && !a.LessEq(b) && Max(a, b).Equal(a) && Min(a, b).Equal(b)
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	f := func(an, ad int64) bool {
		a := arb(an, ad)
		back, err := Parse(a.String())
		return err == nil && back.Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestParseDecimal(t *testing.T) {
	got := MustParse("1.5")
	if !got.Equal(New(3, 2)) {
		t.Fatalf("1.5 parsed as %v", got)
	}
	if _, err := Parse("x/y"); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestMarshalTextRoundTrip(t *testing.T) {
	a := New(-22, 7)
	txt, err := a.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	var b Rat
	if err := b.UnmarshalText(txt); err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatalf("round trip %v -> %v", a, b)
	}
}

func TestFloor(t *testing.T) {
	cases := []struct {
		x    Rat
		want int64
	}{
		{New(7, 2), 3},
		{New(-7, 2), -4},
		{New(4, 2), 2},
		{Zero(), 0},
		{New(-4, 2), -2},
	}
	for _, c := range cases {
		got, ok := c.x.FloorInt64()
		if !ok || got != c.want {
			t.Errorf("Floor(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestApproxFloat(t *testing.T) {
	cases := []struct {
		f      float64
		maxDen int64
		want   Rat
	}{
		{0.5, 100, New(1, 2)},
		{0.333333333333, 10, New(1, 3)},
		{1.25, 1000, New(5, 4)},
		{-2.75, 8, New(-11, 4)},
		{3, 1, FromInt(3)},
	}
	for _, c := range cases {
		got := ApproxFloat(c.f, c.maxDen)
		if !got.Equal(c.want) {
			t.Errorf("ApproxFloat(%v,%d) = %v, want %v", c.f, c.maxDen, got, c.want)
		}
	}
}

func TestApproxFloatQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		f := rng.Float64()*20 - 10
		r := ApproxFloat(f, 1_000_000)
		if d := math.Abs(r.Float64() - f); d > 1e-6 {
			t.Fatalf("ApproxFloat(%v) = %v off by %v", f, r, d)
		}
		if den := r.Den(); den.Cmp(big.NewInt(1_000_000)) > 0 {
			t.Fatalf("denominator bound violated: %v", den)
		}
	}
}

func TestDenLCM(t *testing.T) {
	l := DenLCM(New(1, 6), New(3, 4), New(5, 9))
	if l.Cmp(big.NewInt(36)) != 0 {
		t.Fatalf("lcm(6,4,9) = %v, want 36", l)
	}
	if DenLCM().Cmp(big.NewInt(1)) != 0 {
		t.Fatal("empty lcm should be 1")
	}
	// Property: every input times the LCM is integral.
	f := func(an, ad, bn, bd int64) bool {
		a, b := arb(an, ad), arb(bn, bd)
		l := DenLCM(a, b)
		_, okA := ScaleInt(a, l)
		_, okB := ScaleInt(b, l)
		return okA && okB
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestScaleInt(t *testing.T) {
	v, ok := ScaleInt(New(3, 4), big.NewInt(8))
	if !ok || v.Int64() != 6 {
		t.Fatalf("3/4 * 8 = %v (ok=%v)", v, ok)
	}
	if _, ok := ScaleInt(New(3, 4), big.NewInt(2)); ok {
		t.Fatal("3/4*2 should not be integral")
	}
}

func TestMulBigInt(t *testing.T) {
	x := New(3, 7).MulBigInt(big.NewInt(14))
	if !x.Equal(FromInt(6)) {
		t.Fatalf("3/7*14 = %v", x)
	}
}

func TestSumAbsSign(t *testing.T) {
	s := Sum(New(1, 2), New(1, 3), New(1, 6))
	if !s.IsOne() {
		t.Fatalf("sum = %v", s)
	}
	if Sum().Sign() != 0 {
		t.Fatal("empty sum nonzero")
	}
	if New(-3, 2).Abs().Cmp(New(3, 2)) != 0 {
		t.Fatal("abs wrong")
	}
}

// checkFloat64 demands x.Float64() be, bit for bit, what big.Rat gives.
func checkFloat64(t *testing.T, x Rat) {
	t.Helper()
	want, _ := x.Big().Float64()
	if got := x.Float64(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%v.Float64() = %v (%#x), big.Rat gives %v (%#x)",
			x, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestFloat64MatchesBig walks the edges of the allocation-free path
// (numerator and denominator below 2^53, where int64 -> float64 is
// exact) and of the representation, then random int64 pairs.
func TestFloat64MatchesBig(t *testing.T) {
	if New(1, 2).Float64() != 0.5 {
		t.Fatal("float conversion wrong")
	}
	const p53 = int64(1) << 53
	edges := []int64{0, 1, -1, 3, -7, p53 - 1, -(p53 - 1), p53, -p53, p53 + 1, -(p53 + 1),
		math.MaxInt64, -math.MaxInt64, math.MinInt64}
	checkFloat64(t, Rat{}) // the zero value: d == 0
	for _, n := range edges {
		checkFloat64(t, FromInt(n))
		for _, d := range edges {
			if d != 0 {
				checkFloat64(t, New(n, d))
			}
		}
	}
	huge := New(math.MaxInt64, 3).Mul(New(math.MaxInt64-1, 5)) // promoted: b != nil
	if _, _, small := huge.Small(); small {
		t.Fatal("product did not promote")
	}
	checkFloat64(t, huge)
	checkFloat64(t, huge.Inv().Neg())
	checkFloat64(t, Rat{b: big.NewRat(1, 3)}) // promoted form holding a small value

	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 20000; i++ {
		n, d := int64(rng.Uint64()), int64(rng.Uint64())
		// Half the draws land under 2^53 on one side or both, where the
		// two paths meet.
		if i&1 == 0 {
			n >>= 11
		}
		if i&2 == 0 {
			d >>= 11
		}
		checkFloat64(t, arb(n, d))
	}
}

// FuzzFloat64MatchesBig searches int64 pairs for a value the fast path
// rounds differently from big.Rat.
func FuzzFloat64MatchesBig(f *testing.F) {
	const p53 = int64(1) << 53
	f.Add(int64(1), int64(3))
	f.Add(p53-1, p53-2)
	f.Add(-(p53 - 1), int64(3))
	f.Add(p53, p53-1)
	f.Add(p53+1, int64(7))
	f.Add(int64(math.MinInt64), int64(-1))
	f.Add(int64(0), int64(0))
	f.Fuzz(func(t *testing.T, n, d int64) {
		checkFloat64(t, arb(n, d))
	})
}

// FuzzParseMatchesBig searches for a string the int64 fast path of
// Parse reads differently from big.Rat.SetString: another value,
// another representation of it, or an error on one side only.
func FuzzParseMatchesBig(f *testing.F) {
	for _, s := range []string{
		"1/3", "-7", "0", "-0", "0/7", "-0/5", "6/4", "-6/4", "12/018", "010/3", "00", "007",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808",
		"1/9223372036854775807", "1/9223372036854775808", "18446744073709551616/2",
		"1/0", "1/-2", "-1/-2", "+5", "--5", "1.5", "-.5", "1e3", "0x10", "0x10/2", "1_000", "1/2/3",
		"", "-", "/", "3/", "/3", " 1", "1 ", "1/ 2", "x/y",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if strings.ContainsAny(s, "eEpP") {
			return // an exponent never takes the fast path, and can ask big.Rat for gigabytes
		}
		got, err := Parse(s)
		b, ok := new(big.Rat).SetString(s)
		if !ok {
			if err == nil {
				t.Fatalf("Parse(%q) = %v, big.Rat refuses it", s, got)
			}
			return
		}
		if err != nil {
			t.Fatalf("Parse(%q): %v, big.Rat reads %v", s, err, b)
		}
		if want := fromBig(b); got.n != want.n || got.d != want.d || (got.b == nil) != (want.b == nil) || got.Cmp(want) != 0 {
			t.Fatalf("Parse(%q) = %#v, by way of big.Rat %#v", s, got, want)
		}
		// The text form, which AppendText writes without fmt or big.Rat
		// on the int64 path: what big.Rat prints ("n" for an integer),
		// the same from all three renderers, and read back as the value
		// it came from in the representation it came from.
		text := b.String()
		if b.IsInt() {
			text = b.Num().String()
		}
		if got.String() != text {
			t.Fatalf("Parse(%q).String() = %q, big.Rat prints %q", s, got.String(), text)
		}
		if appended, err := got.AppendText([]byte("x=")); err != nil || string(appended) != "x="+text {
			t.Fatalf("Parse(%q).AppendText = %q, %v; want %q", s, appended, err, "x="+text)
		}
		if marshaled, err := got.MarshalText(); err != nil || string(marshaled) != text {
			t.Fatalf("Parse(%q).MarshalText = %q, %v; want %q", s, marshaled, err, text)
		}
		if back, err := Parse(text); err != nil || back.n != got.n || back.d != got.d || (back.b == nil) != (got.b == nil) || back.Cmp(got) != 0 {
			t.Fatalf("Parse(%q) = %#v, %v; it is the text of %#v", text, back, err, got)
		}
	})
}

// BenchmarkRatString is the ruler of the text form: an n=48 /v1/solve
// reply renders ≈ 290 of these, a platform file one per weight and cost.
func BenchmarkRatString(b *testing.B) {
	x := New(355, 113)
	b.ReportAllocs()
	for b.Loop() {
		_ = x.String()
	}
}

func BenchmarkParseSmall(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Parse("355/113"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAddSmall(b *testing.B) {
	x, y := New(355, 113), New(22, 7)
	b.ReportAllocs()
	for b.Loop() {
		x.Add(y)
	}
}

// BenchmarkAddInt is the sum of two integers: platform weights and the
// ±1 coefficients of the LPs' port and conservation rows.
func BenchmarkAddInt(b *testing.B) {
	x, y := FromInt(355), FromInt(-22)
	b.ReportAllocs()
	for b.Loop() {
		x.Add(y)
	}
}

// BenchmarkAddSameDen is a sum over one denominator, the shape of a
// simplex row scaled by one pivot.
func BenchmarkAddSameDen(b *testing.B) {
	x, y := New(355, 12), New(-23, 12)
	b.ReportAllocs()
	for b.Loop() {
		x.Add(y)
	}
}

func BenchmarkMulSmall(b *testing.B) {
	x, y := New(355, 113), New(22, 7)
	b.ReportAllocs()
	for b.Loop() {
		x.Mul(y)
	}
}

func BenchmarkCmpSmall(b *testing.B) {
	x, y := New(355, 113), New(22, 7)
	b.ReportAllocs()
	for b.Loop() {
		x.Cmp(y)
	}
}

func BenchmarkMulPromoted(b *testing.B) {
	x := New(math.MaxInt64, 3)
	y := New(math.MaxInt64-4, 5)
	b.ReportAllocs()
	for b.Loop() {
		x.Mul(y)
	}
}
