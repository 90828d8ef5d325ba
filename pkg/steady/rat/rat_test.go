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

func TestArithmeticMatchesBigRat(t *testing.T) {
	f := func(an, ad, bn, bd int64) bool {
		a, b := arb(an, ad), arb(bn, bd)
		ra, rb := ref(a), ref(b)

		if got, want := ref(a.Add(b)), new(big.Rat).Add(ra, rb); got.Cmp(want) != 0 {
			t.Logf("add mismatch %v + %v: got %v want %v", a, b, got, want)
			return false
		}
		if got, want := ref(a.Sub(b)), new(big.Rat).Sub(ra, rb); got.Cmp(want) != 0 {
			return false
		}
		if got, want := ref(a.Mul(b)), new(big.Rat).Mul(ra, rb); got.Cmp(want) != 0 {
			return false
		}
		if !b.IsZero() {
			if got, want := ref(a.Div(b)), new(big.Rat).Quo(ra, rb); got.Cmp(want) != 0 {
				return false
			}
		}
		if got, want := ref(a.Neg()), new(big.Rat).Neg(ra); got.Cmp(want) != 0 {
			return false
		}
		if a.Cmp(b) != ra.Cmp(rb) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
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
	for i := 0; i < b.N; i++ {
		if _, err := Parse("355/113"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAddSmall(b *testing.B) {
	x, y := New(355, 113), New(22, 7)
	for i := 0; i < b.N; i++ {
		_ = x.Add(y)
	}
}

func BenchmarkMulSmall(b *testing.B) {
	x, y := New(355, 113), New(22, 7)
	for i := 0; i < b.N; i++ {
		_ = x.Mul(y)
	}
}

func BenchmarkMulPromoted(b *testing.B) {
	x := New(math.MaxInt64, 3)
	y := New(math.MaxInt64-4, 5)
	for i := 0; i < b.N; i++ {
		_ = x.Mul(y)
	}
}
