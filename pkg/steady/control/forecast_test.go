package control

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
	var b battery
	b.update(3)
	b.update(7)
	if got := b.forecast(0); got != 7 {
		t.Fatalf("last = %v, want 7", got)
	}
}

func TestRunningMean(t *testing.T) {
	var b battery
	if b.forecast(1) != 0 {
		t.Fatal("empty mean not 0")
	}
	for _, v := range []float64{2, 4, 6} {
		b.update(v)
	}
	if got := b.forecast(1); got != 4 {
		t.Fatalf("mean = %v, want 4", got)
	}
}

func TestWindowMean(t *testing.T) {
	var r ring
	if r.mean() != 0 {
		t.Fatal("empty window not 0")
	}
	for _, v := range []float64{10, 2, 4} {
		r.push(v, 2)
	}
	if got := r.mean(); got != 3 {
		t.Fatalf("window mean = %v, want 3 (last two)", got)
	}
}

func TestWindowMedian(t *testing.T) {
	var r ring
	for _, v := range []float64{1, 100, 2} {
		r.push(v, 3)
	}
	if got := r.median(); got != 2 {
		t.Fatalf("median = %v, want 2", got)
	}
	r.push(3, 3) // window now {100, 2, 3}
	if got := r.median(); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
	var q ring
	q.push(1, 2)
	q.push(5, 2)
	if got := q.median(); got != 3 {
		t.Fatalf("even median = %v, want 3", got)
	}
}

func TestExpSmoothing(t *testing.T) {
	var b battery
	b.update(4)
	if b.forecast(6) != 4 || b.forecast(7) != 4 {
		t.Fatal("first value must initialize")
	}
	b.update(8)
	if got := b.forecast(7); got != 6 {
		t.Fatalf("exp(0.50) = %v, want 6", got)
	}
}

func TestBatteryPicksLastOnTrend(t *testing.T) {
	// On a steadily increasing series, last-value beats the running
	// mean; the battery must converge to it.
	var b battery
	for i := 0; i < 200; i++ {
		b.update(float64(i))
	}
	if name := predictorNames[b.best()]; name != "last" {
		t.Fatalf("best = %q, want last", name)
	}
	if b.predict() != 199 {
		t.Fatalf("predict = %v", b.predict())
	}
}

func TestBatteryPicksRobustOnSpikes(t *testing.T) {
	// Stable value with occasional huge spikes: medians win over
	// last-value.
	var b battery
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 400; i++ {
		v := 10.0
		if rng.Intn(10) == 0 {
			v = 1000
		}
		b.update(v)
	}
	if name := predictorNames[b.best()]; name == "last" {
		t.Fatalf("battery picked %q on a spiky series", name)
	}
}

func TestBatteryBeatsWorstPredictor(t *testing.T) {
	// The battery's RMSE is close to the best individual predictor's on
	// several regimes. Each predictor's own squared error is what the
	// battery sums to choose it.
	regimes := []func(i int, rng *rand.Rand) float64{
		func(i int, rng *rand.Rand) float64 { return 5 },                                      // constant
		func(i int, rng *rand.Rand) float64 { return float64(i) * 0.1 },                       // trend
		func(i int, rng *rand.Rand) float64 { return 5 + rng.NormFloat64() },                  // noise
		func(i int, rng *rand.Rand) float64 { return 5 + 3*math.Sin(float64(i)/7) },           // periodic
		func(i int, rng *rand.Rand) float64 { return 5 + float64(rng.Intn(2))*rng.Float64() }, // bursty
	}
	for ri, gen := range regimes {
		rng := rand.New(rand.NewSource(int64(ri + 1)))
		var b battery
		sum := 0.0
		for i := range 300 {
			v := gen(i, rng)
			if i > 0 {
				d := b.predict() - v
				sum += float64(d * d)
			}
			b.update(v)
		}
		adaptive := math.Sqrt(sum / 299)
		best := math.Sqrt(slices.Min(b.sqerr[:]) / 299)
		if adaptive > best*1.5+1e-9 {
			t.Fatalf("regime %d: battery RMSE %v far above best individual %v", ri, adaptive, best)
		}
	}
}

// TestNames holds the name table to the names the reference battery's
// predictors render from their parameters.
func TestNames(t *testing.T) {
	ref := newRefBattery()
	for i, p := range ref.preds {
		if predictorNames[i] != p.Name() {
			t.Fatalf("predictor %d is %q, reference %q", i, predictorNames[i], p.Name())
		}
	}
}

// --- the battery against the implementations it replaced -------------

// refPredictor is one predictor of the reference battery.
type refPredictor interface {
	Update(v float64)
	Predict() float64
	Name() string
}

// The reference predictors are the battery's as they were before it
// held them by value: one type each, sliding windows that append and
// reslice, and a median that copies and sorts its window on every
// Predict. The property test below holds the battery to them, bit for
// bit.
type refLast struct{ last float64 }

func (p *refLast) Update(v float64) { p.last = v }
func (p *refLast) Predict() float64 { return p.last }
func (p *refLast) Name() string     { return "last" }

type refMean struct {
	sum float64
	n   int
}

func (p *refMean) Update(v float64) { p.sum += v; p.n++ }
func (p *refMean) Name() string     { return "mean" }

func (p *refMean) Predict() float64 {
	if p.n == 0 {
		return 0
	}
	return p.sum / float64(p.n)
}

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

type refExp struct {
	alpha float64
	val   float64
	init  bool
}

func (p *refExp) Update(v float64) {
	if !p.init {
		p.val, p.init = v, true
		return
	}
	p.val = float64(p.alpha*v) + float64((1-p.alpha)*p.val)
}

func (p *refExp) Predict() float64 { return p.val }
func (p *refExp) Name() string     { return fmt.Sprintf("exp(%.2f)", p.alpha) }

// refBattery is the NWS mixture as a slice of predictors, scored and
// fed through the interface.
type refBattery struct {
	preds []refPredictor
	sqerr []float64
	n     int
}

func newRefBattery() *refBattery {
	preds := []refPredictor{
		&refLast{},
		&refMean{},
		&refWindowMean{k: 5},
		&refWindowMean{k: 20},
		&refWindowMedian{k: 5},
		&refWindowMedian{k: 20},
		&refExp{alpha: 0.2},
		&refExp{alpha: 0.5},
	}
	return &refBattery{preds: preds, sqerr: make([]float64, len(preds))}
}

func (a *refBattery) Update(v float64) {
	if a.n > 0 {
		for i, p := range a.preds {
			d := p.Predict() - v
			a.sqerr[i] += float64(d * d)
		}
	}
	for _, p := range a.preds {
		p.Update(v)
	}
	a.n++
}

func (a *refBattery) Best() int {
	best := 0
	for i := 1; i < len(a.preds); i++ {
		if a.sqerr[i] < a.sqerr[best] {
			best = i
		}
	}
	return best
}

func (a *refBattery) Predict() float64 { return a.preds[a.Best()].Predict() }

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

// TestWindowsMatchReference is the bit-identity contract of the
// battery: over seeded series — constant, steps, few distinct values,
// long runs of ties, values held for whole regimes, 10^5 updates, and
// NaN and ±Inf among them — with fresh starts interleaved, every
// predictor and the battery itself forecast the same bits as the
// interface-slice reference after every update, and the battery ranks
// the same predictor first, under the same name.
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
		// What CheckMeasurement keeps out but the battery takes: NaN
		// and infinities among finite values, alone and held. Which NaN
		// a sum of two NaNs carries depends on how the compiler orders
		// its operands, so each series has one kind: math.NaN() with
		// +Inf, or the NaN of Inf - Inf.
		{"NaN and +Inf", 5000, nonFinite(math.NaN(), math.Inf(1))},
		{"+Inf and -Inf", 5000, nonFinite(math.Inf(1), math.Inf(-1))},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				var got battery
				want := newRefBattery()
				for i := 0; i < sh.n; i++ {
					if rng.Intn(997) == 0 {
						got, want = battery{}, newRefBattery()
					}
					v := sh.gen(rng, i)
					got.update(v)
					want.Update(v)
					all := got.forecasts()
					for j, p := range want.preds {
						w := p.Predict()
						for _, g := range []float64{all[j], got.forecast(j)} {
							if math.Float64bits(g) != math.Float64bits(w) {
								t.Fatalf("seed %d update %d: %s predicts %v (%#x), reference %v (%#x)",
									seed, i, p.Name(), g, math.Float64bits(g), w, math.Float64bits(w))
							}
						}
					}
					if b, w := got.best(), want.Best(); b != w || predictorNames[b] != want.preds[w].Name() {
						t.Fatalf("seed %d update %d: best %d %q, reference %d %q",
							seed, i, b, predictorNames[b], w, want.preds[w].Name())
					}
					if g, w := got.predict(), want.Predict(); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("seed %d update %d: battery predicts %v, reference %v", seed, i, g, w)
					}
				}
			}
		})
	}
}

// TestWindowsSurviveNonFinite feeds a ring what CheckMeasurement never
// lets through — NaN, both infinities, both zeros, negatives — in
// every window position and at several widths. Nothing may panic, and
// the sorted copy must stay its ring's values in ascending order.
func TestWindowsSurviveNonFinite(t *testing.T) {
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), -3, 1, 2, math.NaN(), 1}
	for _, k := range []int{1, 2, 5, 20} {
		rng := rand.New(rand.NewSource(int64(k)))
		var r ring
		ref := &refWindowMedian{k: k}
		for i := 0; i < 5000; i++ {
			v := odd[rng.Intn(len(odd))]
			if rng.Intn(4) == 0 {
				v = rng.NormFloat64()
			}
			r.push(v, k)
			ref.Update(v)
			r.mean()
			sorted, held := r.sorted[:r.n], slices.Clone(r.buf[:r.n])
			slices.SortFunc(held, cmp.Compare[float64])
			if !slices.IsSorted(sorted) || slices.CompareFunc(sorted, held, cmp.Compare[float64]) != 0 {
				t.Fatalf("k=%d update %d: sorted copy %v, ring %v", k, i, sorted, r.buf[:r.n])
			}
			// Equal up to what the order cannot tell apart: which NaN,
			// which zero.
			if g, w := r.median(), ref.Predict(); cmp.Compare(g, w) != 0 {
				t.Fatalf("k=%d update %d: median %v, reference %v", k, i, g, w)
			}
		}
	}
	var b battery
	for i := 0; i < 200; i++ {
		b.update(odd[i%len(odd)])
		b.predict()
	}
}

// TestBatteryUpdateAllocations: feeding the battery and reading its
// forecast never touch the heap, full windows or not.
func TestBatteryUpdateAllocations(t *testing.T) {
	b := new(battery)
	v := 1.0
	if allocs := testing.AllocsPerRun(1000, func() {
		v += 0.25
		b.update(v)
		b.predict()
	}); allocs != 0 {
		t.Fatalf("%.1f allocations per battery update, want 0", allocs)
	}
}

func BenchmarkBatteryUpdate(b *testing.B) {
	bat := new(battery)
	rng := rand.New(rand.NewSource(1))
	series := make([]float64, 1024)
	for i := range series {
		series[i] = 1 + rng.Float64()
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		bat.update(series[i%len(series)])
		i++
	}
}

// --- predictor-selection edge cases ----------------------------------

func TestBatteryEmptyHistory(t *testing.T) {
	var b battery
	if got := b.predict(); got != 0 {
		t.Fatalf("empty-history forecast = %v, want 0", got)
	}
	// No errors have been scored, so selection must fall back to the
	// first predictor in the battery.
	if got := b.best(); got != 0 {
		t.Fatalf("empty-history best = %d, want 0", got)
	}
	if got := predictorNames[b.best()]; got != "last" {
		t.Fatalf("empty-history best name = %q, want \"last\"", got)
	}
}

func TestBatterySingleSample(t *testing.T) {
	var b battery
	b.update(3.5)
	// One sample: every predictor agrees, no error has been scored (the
	// first prediction is made with no history), and the forecast is
	// the sample itself.
	for i, f := range b.forecasts() {
		if f != 3.5 {
			t.Fatalf("single-sample %s = %v, want 3.5", predictorNames[i], f)
		}
	}
	if got := b.best(); got != 0 {
		t.Fatalf("single-sample best = %d, want 0 (no errors scored yet)", got)
	}
}

func TestBatteryTieBreaking(t *testing.T) {
	// A constant series keeps every predictor exactly right, so all
	// summed errors stay 0. Selection must break the tie toward the
	// lowest index, deterministically.
	var b battery
	for i := 0; i < 50; i++ {
		b.update(2)
	}
	if got := b.best(); got != 0 {
		t.Fatalf("all-tied best = %d, want 0 (lowest index wins ties)", got)
	}
	if got := b.predict(); got != 2 {
		t.Fatalf("constant-series forecast = %v, want 2", got)
	}
}

// TestBatteryDeterminism is the determinism property the control
// plane's epochs rely on: feeding the same series into two fresh
// batteries yields the same chosen predictor and the same forecast at
// every step, for a spread of series shapes.
func TestBatteryDeterminism(t *testing.T) {
	shapes := map[string]func(rng *rand.Rand, i int) float64{
		"noise":    func(rng *rand.Rand, i int) float64 { return 1 + rng.Float64() },
		"trend":    func(rng *rand.Rand, i int) float64 { return float64(i) + rng.Float64()/10 },
		"spikes":   func(rng *rand.Rand, i int) float64 { return 1 + 50*float64(i%7/6) + rng.Float64() },
		"seasonal": func(rng *rand.Rand, i int) float64 { return 2 + math.Sin(float64(i)/5) + rng.Float64()/4 },
	}
	for name, gen := range shapes {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 5; seed++ {
				rng := rand.New(rand.NewSource(seed))
				var a, b battery
				for i := range 300 {
					v := gen(rng, i)
					a.update(v)
					b.update(v)
					if a.best() != b.best() || a.predict() != b.predict() {
						t.Fatalf("seed %d step %d: diverged: %s %v vs %s %v", seed, i,
							predictorNames[a.best()], a.predict(), predictorNames[b.best()], b.predict())
					}
				}
			}
		})
	}
}

// --- the shared measurement guard ------------------------------------

func TestCheckMeasurement(t *testing.T) {
	bad := map[string]float64{
		"NaN":      math.NaN(),
		"+Inf":     math.Inf(1),
		"-Inf":     math.Inf(-1),
		"zero":     0,
		"negative": -1.5,
	}
	for name, v := range bad {
		if err := CheckMeasurement(v); err == nil {
			t.Errorf("CheckMeasurement(%s) accepted %v", name, v)
		}
	}
	good := []float64{1e-300, 0.5, 1, 1e12}
	for _, v := range good {
		if err := CheckMeasurement(v); err != nil {
			t.Errorf("CheckMeasurement(%v) rejected a valid measurement: %v", v, err)
		}
	}
}
