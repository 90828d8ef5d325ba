package forecast

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestLastValue(t *testing.T) {
	p := &LastValue{}
	p.Update(3)
	p.Update(7)
	if p.Predict() != 7 {
		t.Fatalf("predict = %v", p.Predict())
	}
}

func TestRunningMean(t *testing.T) {
	p := &RunningMean{}
	if p.Predict() != 0 {
		t.Fatal("empty mean not 0")
	}
	for _, v := range []float64{2, 4, 6} {
		p.Update(v)
	}
	if p.Predict() != 4 {
		t.Fatalf("mean = %v", p.Predict())
	}
}

func TestWindowMean(t *testing.T) {
	p := NewWindowMean(2)
	if p.Predict() != 0 {
		t.Fatal("empty window not 0")
	}
	for _, v := range []float64{10, 2, 4} {
		p.Update(v)
	}
	if p.Predict() != 3 {
		t.Fatalf("window mean = %v, want 3 (last two)", p.Predict())
	}
}

func TestWindowMedian(t *testing.T) {
	p := NewWindowMedian(3)
	for _, v := range []float64{1, 100, 2} {
		p.Update(v)
	}
	if p.Predict() != 2 {
		t.Fatalf("median = %v, want 2", p.Predict())
	}
	p.Update(3) // window now {100, 2, 3}
	if p.Predict() != 3 {
		t.Fatalf("median = %v, want 3", p.Predict())
	}
	q := NewWindowMedian(2)
	q.Update(1)
	q.Update(5)
	if q.Predict() != 3 {
		t.Fatalf("even median = %v, want 3", q.Predict())
	}
}

func TestExpSmoothing(t *testing.T) {
	p := NewExpSmoothing(0.5)
	p.Update(4)
	if p.Predict() != 4 {
		t.Fatal("first value must initialize")
	}
	p.Update(8)
	if p.Predict() != 6 {
		t.Fatalf("smoothed = %v, want 6", p.Predict())
	}
}

func TestConstructorPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewWindowMean(0) },
		func() { NewWindowMedian(0) },
		func() { NewExpSmoothing(0) },
		func() { NewExpSmoothing(1.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestAdaptivePicksLastOnTrend(t *testing.T) {
	// On a steadily increasing series, last-value beats the running
	// mean; the adaptive predictor must converge to it.
	a := NewAdaptive()
	for i := 0; i < 200; i++ {
		a.Update(float64(i))
	}
	if a.BestName() != "last" {
		t.Fatalf("best = %q, want last", a.BestName())
	}
	if a.Predict() != 199 {
		t.Fatalf("predict = %v", a.Predict())
	}
}

func TestAdaptivePicksRobustOnSpikes(t *testing.T) {
	// Stable value with occasional huge spikes: medians win over
	// last-value.
	a := NewAdaptive()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 400; i++ {
		v := 10.0
		if rng.Intn(10) == 0 {
			v = 1000
		}
		a.Update(v)
	}
	name := a.BestName()
	if name == "last" {
		t.Fatalf("adaptive picked %q on a spiky series", name)
	}
}

func TestAdaptiveBeatsWorstPredictor(t *testing.T) {
	// The adaptive mixture's RMSE is close to the best individual's
	// on several regimes.
	regimes := []func(i int, rng *rand.Rand) float64{
		func(i int, rng *rand.Rand) float64 { return 5 },                                      // constant
		func(i int, rng *rand.Rand) float64 { return float64(i) * 0.1 },                       // trend
		func(i int, rng *rand.Rand) float64 { return 5 + rng.NormFloat64() },                  // noise
		func(i int, rng *rand.Rand) float64 { return 5 + 3*math.Sin(float64(i)/7) },           // periodic
		func(i int, rng *rand.Rand) float64 { return 5 + float64(rng.Intn(2))*rng.Float64() }, // bursty
	}
	for ri, gen := range regimes {
		rng := rand.New(rand.NewSource(int64(ri + 1)))
		series := make([]float64, 300)
		for i := range series {
			series[i] = gen(i, rng)
		}
		adaptive := RMSE(NewAdaptive(), series)
		best := math.Inf(1)
		for _, p := range []Predictor{
			&LastValue{}, &RunningMean{}, NewWindowMean(5), NewWindowMean(20),
			NewWindowMedian(5), NewWindowMedian(20), NewExpSmoothing(0.2), NewExpSmoothing(0.5),
		} {
			if e := RMSE(p, series); e < best {
				best = e
			}
		}
		if adaptive > best*1.5+1e-9 {
			t.Fatalf("regime %d: adaptive RMSE %v far above best individual %v", ri, adaptive, best)
		}
	}
}

func TestRMSEShortSeries(t *testing.T) {
	if RMSE(&LastValue{}, []float64{1}) != 0 {
		t.Fatal("short series RMSE must be 0")
	}
	// Perfect prediction on a constant series (after the first).
	if RMSE(&LastValue{}, []float64{4, 4, 4, 4}) != 0 {
		t.Fatal("constant series should have zero error for last-value")
	}
}

func TestNames(t *testing.T) {
	for _, p := range []Predictor{
		&LastValue{}, &RunningMean{}, NewWindowMean(3), NewWindowMedian(3),
		NewExpSmoothing(0.3), NewAdaptive(),
	} {
		if p.Name() == "" {
			t.Fatal("empty name")
		}
	}
}

// --- the ring windows against the implementations they replaced -------

// refWindowMean and refWindowMedian are the sliding windows as they
// were before the rings: append and reslice, and a median that copies
// and sorts its window on every Predict. They are the reference the
// property test below holds the rings to, bit for bit.
type refWindowMean struct {
	k   int
	buf []float64
}

func (p *refWindowMean) Update(v float64) {
	p.buf = append(p.buf, v)
	if len(p.buf) > p.k {
		p.buf = p.buf[1:]
	}
}

func (p *refWindowMean) Predict() float64 {
	if len(p.buf) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range p.buf {
		s += v
	}
	return s / float64(len(p.buf))
}

func (p *refWindowMean) Name() string { return fmt.Sprintf("window-mean(%d)", p.k) }
func (p *refWindowMean) Reset()       { p.buf = p.buf[:0] }

type refWindowMedian struct {
	k   int
	buf []float64
}

func (p *refWindowMedian) Update(v float64) {
	p.buf = append(p.buf, v)
	if len(p.buf) > p.k {
		p.buf = p.buf[1:]
	}
}

func (p *refWindowMedian) Predict() float64 {
	if len(p.buf) == 0 {
		return 0
	}
	s := append([]float64(nil), p.buf...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func (p *refWindowMedian) Name() string { return fmt.Sprintf("window-median(%d)", p.k) }
func (p *refWindowMedian) Reset()       { p.buf = p.buf[:0] }

// refAdaptive is the battery as it was before Adaptive held its
// predictors by value: a slice of Predictors, scored and fed through
// the interface, over the reference windows.
type refAdaptive struct {
	preds []Predictor
	sqerr []float64
	n     int
}

func newRefAdaptive() *refAdaptive {
	preds := []Predictor{
		&LastValue{},
		&RunningMean{},
		&refWindowMean{k: 5},
		&refWindowMean{k: 20},
		&refWindowMedian{k: 5},
		&refWindowMedian{k: 20},
		NewExpSmoothing(0.2),
		NewExpSmoothing(0.5),
	}
	return &refAdaptive{preds: preds, sqerr: make([]float64, len(preds))}
}

func (a *refAdaptive) Update(v float64) {
	if a.n > 0 {
		for i, p := range a.preds {
			d := p.Predict() - v
			a.sqerr[i] += d * d
		}
	}
	for _, p := range a.preds {
		p.Update(v)
	}
	a.n++
}

func (a *refAdaptive) Best() int {
	best := 0
	for i := 1; i < len(a.preds); i++ {
		if a.sqerr[i] < a.sqerr[best] {
			best = i
		}
	}
	return best
}

func (a *refAdaptive) Predict() float64 { return a.preds[a.Best()].Predict() }
func (a *refAdaptive) BestName() string { return a.preds[a.Best()].Name() }

func (a *refAdaptive) Reset() {
	for i, p := range a.preds {
		p.Reset()
		a.sqerr[i] = 0
	}
	a.n = 0
}

// nonFinite returns a series of values among 1, 1.25, 1.5 and 1.75 with
// x and y each one in twelve, and x, then y, held for 50 updates in
// every 200.
func nonFinite(x, y float64) func(rng *rand.Rand, i int) float64 {
	return func(rng *rand.Rand, i int) float64 {
		switch {
		case i%200 >= 100 && i%200 < 150:
			return x
		case i%200 >= 150:
			return y
		}
		switch rng.Intn(12) {
		case 0:
			return x
		case 1:
			return y
		}
		return 1 + float64(rng.Intn(4))/4
	}
}

// TestWindowsMatchReference is the bit-identity contract of the ring
// windows and of the battery held by value: over seeded series —
// constant, steps, few distinct values, long runs of ties, values held
// for whole regimes, 10^5 updates, and NaN and ±Inf among them — with
// Resets interleaved, every
// sub-predictor and the battery itself forecast the same bits as the
// interface-slice reference after every update, and the battery ranks
// the same sub-predictor first.
func TestWindowsMatchReference(t *testing.T) {
	shapes := []struct {
		name string
		n    int
		gen  func(rng *rand.Rand, i int) float64
	}{
		{"constant", 500, func(*rand.Rand, int) float64 { return 2.5 }},
		{"steps", 2000, func(rng *rand.Rand, i int) float64 { return float64(1+i/37%9) * 0.3 }},
		{"duplicates", 2000, func(rng *rand.Rand, i int) float64 { return float64(1 + rng.Intn(3)) }},
		{"ties", 2000, func(rng *rand.Rand, i int) float64 {
			if rng.Intn(10) == 0 {
				return 1 + rng.Float64()
			}
			return 1.25
		}},
		{"noise", 100000, func(rng *rand.Rand, i int) float64 { return 1e-3 + rng.ExpFloat64()*float64(1+i%5) }},
		{"tiny and huge", 2000, func(rng *rand.Rand, i int) float64 {
			return math.Ldexp(1+rng.Float64(), rng.Intn(200)-100)
		}},
		// A value held for a whole regime of 100 updates, as
		// control_drift posts every series; a regime returns to a
		// value an earlier one held.
		{"held regimes", 5000, func(rng *rand.Rand, i int) float64 {
			return []float64{1, 1.375, 2.75, 0.6875, 5.5}[(i/100)*7%5]
		}},
		// Regimes of a few updates each, some a value tied with the
		// window's neighbours, some a step across them.
		{"short regimes", 5000, func(rng *rand.Rand, i int) float64 {
			return float64(1+(i/(1+i%7))%4) * 0.25
		}},
		// What the Estimator's guard keeps out but the battery takes:
		// NaN and infinities among finite values, alone and held. Which
		// NaN a sum of two NaNs carries depends on how the compiler
		// orders its operands, so each series has one kind: math.NaN()
		// with +Inf, or the NaN of Inf - Inf.
		{"NaN and +Inf", 5000, nonFinite(math.NaN(), math.Inf(1))},
		{"+Inf and -Inf", 5000, nonFinite(math.Inf(1), math.Inf(-1))},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				got, want := NewAdaptive(), newRefAdaptive()
				for j := range want.preds {
					if g, w := got.sub(j).Name(), want.preds[j].Name(); g != w {
						t.Fatalf("sub-predictor %d is %s, reference %s", j, g, w)
					}
				}
				for i := 0; i < sh.n; i++ {
					if rng.Intn(997) == 0 {
						got.Reset()
						want.Reset()
					}
					v := sh.gen(rng, i)
					got.Update(v)
					want.Update(v)
					for j := range want.preds {
						g, w := got.sub(j).Predict(), want.preds[j].Predict()
						if math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("seed %d update %d: %s predicts %v (%#x), reference %v (%#x)",
								seed, i, want.preds[j].Name(), g, math.Float64bits(g), w, math.Float64bits(w))
						}
					}
					if got.Best() != want.Best() || got.BestName() != want.BestName() {
						t.Fatalf("seed %d update %d: best %d %q, reference %d %q",
							seed, i, got.Best(), got.BestName(), want.Best(), want.BestName())
					}
					if g, w := got.Predict(), want.Predict(); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("seed %d update %d: battery predicts %v, reference %v", seed, i, g, w)
					}
				}
			}
		})
	}
}

// TestWindowsSurviveNonFinite feeds the public predictors what the
// Estimator's guard never lets through — NaN, both infinities, both
// zeros, negatives — in every window position. Nothing may panic, and
// the median's sorted copy must stay a permutation-by-order of its
// ring: same length, ascending under the total order it is kept in.
func TestWindowsSurviveNonFinite(t *testing.T) {
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), -3, 1, 2, math.NaN(), 1}
	for _, k := range []int{1, 2, 5, 20} {
		rng := rand.New(rand.NewSource(int64(k)))
		mean, med, ref := NewWindowMean(k), NewWindowMedian(k), &refWindowMedian{k: k}
		for i := 0; i < 5000; i++ {
			v := odd[rng.Intn(len(odd))]
			if rng.Intn(4) == 0 {
				v = rng.NormFloat64()
			}
			mean.Update(v)
			med.Update(v)
			ref.Update(v)
			mean.Predict()
			if len(med.sorted) != len(med.win.buf) {
				t.Fatalf("k=%d update %d: sorted copy holds %d values, ring %d", k, i, len(med.sorted), len(med.win.buf))
			}
			if !slices.IsSorted(med.sorted) {
				t.Fatalf("k=%d update %d: sorted copy out of order: %v", k, i, med.sorted)
			}
			// Equal up to what the order cannot tell apart: which NaN,
			// which zero.
			if g, w := med.Predict(), ref.Predict(); cmp.Compare(g, w) != 0 {
				t.Fatalf("k=%d update %d: median %v, reference %v", k, i, g, w)
			}
		}
	}
	a := NewAdaptive()
	for i := 0; i < 200; i++ {
		a.Update(odd[i%len(odd)])
		a.Predict()
		a.BestName()
	}
}

// TestAdaptiveUpdateAllocations: feeding the battery is free of the
// heap once its windows exist, full or not.
func TestAdaptiveUpdateAllocations(t *testing.T) {
	a := NewAdaptive()
	v := 1.0
	if allocs := testing.AllocsPerRun(1000, func() {
		v += 0.25
		a.Update(v)
		a.Predict()
	}); allocs != 0 {
		t.Fatalf("%.1f allocations per Adaptive.Update, want 0", allocs)
	}
}

func BenchmarkAdaptiveUpdate(b *testing.B) {
	a := NewAdaptive()
	rng := rand.New(rand.NewSource(1))
	series := make([]float64, 1024)
	for i := range series {
		series[i] = 1 + rng.Float64()
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		a.Update(series[i%len(series)])
		i++
	}
}
