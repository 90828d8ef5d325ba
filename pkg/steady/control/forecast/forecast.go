// Package forecast is the reproduction's stand-in for the Network
// Weather Service [18] used by §5.5's dynamic scheduling: a family of
// time-series predictors plus NWS's key idea — run all predictors in
// parallel on each series, track their errors, and forecast with
// whichever has been most accurate so far ("use the past to predict
// the future").
//
// The package is public because the online control plane
// (pkg/steady/control) feeds platform telemetry through these
// predictors — live telemetry in steadyd, epoch observations in the
// §5.5 simulation — through one estimator per deployment, a battery
// per node and per edge. Predictors are deterministic: the same observation
// sequence always yields the same chosen sub-predictor and the same
// forecast. They are NOT safe for concurrent use — callers serialize
// access per series (the control plane under its deployment lock).
//
// Feeding a predictor is the control plane's per-observation cost, so
// Update and Predict never touch the heap: the sliding windows are
// rings allocated at construction, and a window median keeps a sorted
// copy of its ring (one value out, one in, at most k moves) instead of
// sorting on every forecast. The predictors themselves accept any
// float64 — a NaN, an infinity or a zero propagates into the forecasts
// the way float arithmetic propagates it (a window median orders NaNs
// first) and never panics or corrupts a window; keeping such values
// out is the caller's job, and CheckMeasurement is how.
//
// CheckMeasurement is the shared ingestion guard: every float
// measurement that will be converted to an exact rational platform
// value must be finite and strictly positive, otherwise downstream
// continued-fraction conversion would build an invalid platform.
package forecast

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadMeasurement reports a telemetry value that must not enter a
// forecaster or a rational platform model: NaN, ±Inf, zero or
// negative. Match with errors.Is.
var ErrBadMeasurement = errors.New("forecast: bad measurement")

// CheckMeasurement validates one observed platform cost (seconds per
// task for a node, seconds per unit-size transfer for an edge): it
// must be a finite float strictly greater than zero. Everything that
// ingests float measurements into the exact rational model —
// pkg/steady/sim's epoch observations and the control plane's
// /v1/deployments telemetry — shares this guard, so an invalid
// measurement is rejected at the boundary instead of surfacing later
// as an invalid platform.
func CheckMeasurement(v float64) error {
	if math.IsNaN(v) {
		return fmt.Errorf("%w: NaN", ErrBadMeasurement)
	}
	if math.IsInf(v, 0) {
		return fmt.Errorf("%w: %v", ErrBadMeasurement, v)
	}
	if v <= 0 {
		return fmt.Errorf("%w: non-positive value %v", ErrBadMeasurement, v)
	}
	return nil
}

// Predictor forecasts the next value of a series from its history.
type Predictor interface {
	// Update feeds one observation.
	Update(v float64)
	// Predict returns the forecast for the next observation.
	Predict() float64
	// Name labels the predictor.
	Name() string
	// Reset discards all history, returning the predictor to its
	// initial state (the control plane resets a series when its
	// deployment is replaced).
	Reset()
}

// LastValue predicts the most recent observation.
type LastValue struct{ last float64 }

// Update implements Predictor.
func (p *LastValue) Update(v float64) { p.last = v }

// Predict implements Predictor.
func (p *LastValue) Predict() float64 { return p.last }

// Name implements Predictor.
func (p *LastValue) Name() string { return "last" }

// Reset implements Predictor.
func (p *LastValue) Reset() { p.last = 0 }

// RunningMean predicts the mean of all observations.
type RunningMean struct {
	sum float64
	n   int
}

// Update implements Predictor.
func (p *RunningMean) Update(v float64) { p.sum += v; p.n++ }

// Reset implements Predictor.
func (p *RunningMean) Reset() { p.sum, p.n = 0, 0 }

// Predict implements Predictor.
func (p *RunningMean) Predict() float64 {
	if p.n == 0 {
		return 0
	}
	return p.sum / float64(p.n)
}

// Name implements Predictor.
func (p *RunningMean) Name() string { return "mean" }

// window is the ring behind both sliding-window predictors: the last
// k observations in a buffer allocated once.
type window struct {
	buf  []float64 // len <= cap == k
	head int       // the oldest observation, once len(buf) == k
}

func newWindow(k int) window {
	if k < 1 {
		panic("forecast: window must be >= 1")
	}
	return window{buf: make([]float64, 0, k)}
}

// push records v and returns the observation it displaced, if the
// window was full.
func (w *window) push(v float64) (evicted float64, full bool) {
	if len(w.buf) < cap(w.buf) {
		w.buf = append(w.buf, v)
		return 0, false
	}
	evicted = w.buf[w.head]
	w.buf[w.head] = v
	if w.head++; w.head == len(w.buf) {
		w.head = 0
	}
	return evicted, true
}

func (w *window) reset() { w.buf, w.head = w.buf[:0], 0 }

// WindowMean predicts the mean of the last K observations.
type WindowMean struct{ win window }

// NewWindowMean returns a sliding-window mean of width k.
func NewWindowMean(k int) *WindowMean { return &WindowMean{win: newWindow(k)} }

// Update implements Predictor.
func (p *WindowMean) Update(v float64) { p.win.push(v) }

// Predict implements Predictor. It adds the window up oldest to
// newest on every call: a running sum (add the new value, subtract the
// evicted one) rounds differently, and forecasts are part of the
// reproducible output — the golden epoch logs pin their bits.
func (p *WindowMean) Predict() float64 {
	w := &p.win
	if len(w.buf) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range w.buf[w.head:] {
		s += v
	}
	for _, v := range w.buf[:w.head] {
		s += v
	}
	return s / float64(len(w.buf))
}

// Name implements Predictor.
func (p *WindowMean) Name() string { return fmt.Sprintf("window-mean(%d)", cap(p.win.buf)) }

// Reset implements Predictor.
func (p *WindowMean) Reset() { p.win.reset() }

// WindowMedian predicts the median of the last K observations,
// robust to the load spikes of shared platforms.
type WindowMedian struct {
	win window
	// sorted holds the window's values in ascending order, maintained
	// by Update so that Predict is a read. The order is cmp.Less's:
	// total, NaNs first (where sort.Float64s puts them too), so the
	// value push evicts is always found and the two never disagree on
	// length, whatever floats a caller feeds.
	sorted []float64
}

// NewWindowMedian returns a sliding-window median of width k.
func NewWindowMedian(k int) *WindowMedian {
	return &WindowMedian{win: newWindow(k), sorted: make([]float64, 0, k)}
}

// Update implements Predictor: the evicted value leaves the sorted
// copy and v enters it, shifting only what lies between the two. A
// window is at most a few dozen values, so a linear walk finds both
// places: it costs less than a binary search, whose every step is a
// branch that random telemetry mispredicts half the time.
func (p *WindowMedian) Update(v float64) {
	old, full := p.win.push(v)
	s := p.sorted
	if !full {
		at := rank(s, v)
		s = append(s, 0)
		copy(s[at+1:], s[at:])
		s[at] = v
		p.sorted = s
		return
	}
	// Walk from the evicted value's place toward v's, moving each value
	// in between one step into the gap.
	j := rank(s, old)
	if less(v, old) {
		for ; j > 0 && !less(s[j-1], v); j-- {
			s[j] = s[j-1]
		}
	} else {
		for ; j+1 < len(s) && less(s[j+1], v); j++ {
			s[j] = s[j+1]
		}
	}
	s[j] = v
}

// rank returns the number of values of the sorted s that order before
// v: where slices.BinarySearch would place v, so the sorted copy holds
// the same values in the same slots, bit for bit.
func rank(s []float64, v float64) int {
	i := 0
	for i < len(s) && less(s[i], v) {
		i++
	}
	return i
}

// less is cmp.Less on float64, NaN before every number, in two
// comparisons: a NaN b is never above, and !(a >= b) holds for a NaN a
// and for a < b alike.
func less(a, b float64) bool { return b == b && !(a >= b) }

// Predict implements Predictor.
func (p *WindowMedian) Predict() float64 {
	s := p.sorted
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Name implements Predictor.
func (p *WindowMedian) Name() string { return fmt.Sprintf("window-median(%d)", cap(p.win.buf)) }

// Reset implements Predictor.
func (p *WindowMedian) Reset() { p.win.reset(); p.sorted = p.sorted[:0] }

// ExpSmoothing predicts with exponential smoothing of parameter
// alpha in (0, 1].
type ExpSmoothing struct {
	alpha float64
	val   float64
	init  bool
}

// NewExpSmoothing returns an exponential smoother.
func NewExpSmoothing(alpha float64) *ExpSmoothing {
	if alpha <= 0 || alpha > 1 {
		panic("forecast: alpha must be in (0,1]")
	}
	return &ExpSmoothing{alpha: alpha}
}

// Update implements Predictor.
func (p *ExpSmoothing) Update(v float64) {
	if !p.init {
		p.val, p.init = v, true
		return
	}
	p.val = float64(p.alpha*v) + float64((1-p.alpha)*p.val)
}

// Predict implements Predictor.
func (p *ExpSmoothing) Predict() float64 { return p.val }

// Name implements Predictor.
func (p *ExpSmoothing) Name() string { return fmt.Sprintf("exp(%.2f)", p.alpha) }

// Reset implements Predictor.
func (p *ExpSmoothing) Reset() { p.val, p.init = 0, false }

// Adaptive is the NWS mixture: it runs a battery of predictors and
// forecasts with the one whose mean squared error has been lowest.
// The battery is fixed, so it is held by value and called directly:
// one Update is eight forecasts scored and eight observations fed, with
// no interface call in between.
type Adaptive struct {
	last  LastValue
	mean  RunningMean
	wmean [2]WindowMean   // widths 5 and 20
	wmed  [2]WindowMedian // widths 5 and 20
	exp   [2]ExpSmoothing // alpha 0.2 and 0.5
	sqerr [batterySize]float64
	n     int
}

// batterySize is the number of sub-predictors of an Adaptive.
const batterySize = 8

// NewAdaptive returns the standard battery (last value, running mean,
// window means/medians, exponential smoothings).
func NewAdaptive() *Adaptive {
	return &Adaptive{
		wmean: [2]WindowMean{*NewWindowMean(5), *NewWindowMean(20)},
		wmed:  [2]WindowMedian{*NewWindowMedian(5), *NewWindowMedian(20)},
		exp:   [2]ExpSmoothing{*NewExpSmoothing(0.2), *NewExpSmoothing(0.5)},
	}
}

// forecasts returns every sub-predictor's forecast, in battery order:
// the order Best indexes and breaks ties by.
func (a *Adaptive) forecasts() [batterySize]float64 {
	return [batterySize]float64{
		a.last.Predict(), a.mean.Predict(),
		a.wmean[0].Predict(), a.wmean[1].Predict(),
		a.wmed[0].Predict(), a.wmed[1].Predict(),
		a.exp[0].Predict(), a.exp[1].Predict(),
	}
}

// sub returns sub-predictor i, in battery order.
func (a *Adaptive) sub(i int) Predictor {
	switch i {
	case 0:
		return &a.last
	case 1:
		return &a.mean
	case 2, 3:
		return &a.wmean[i-2]
	case 4, 5:
		return &a.wmed[i-4]
	default:
		return &a.exp[i-6]
	}
}

// Update implements Predictor: it first scores every sub-predictor
// against the new observation, then feeds it to all of them.
func (a *Adaptive) Update(v float64) {
	if a.n > 0 {
		for i, f := range a.forecasts() {
			d := f - v
			a.sqerr[i] += float64(d * d)
		}
	}
	a.last.Update(v)
	a.mean.Update(v)
	for i := range 2 {
		a.wmean[i].Update(v)
		a.wmed[i].Update(v)
		a.exp[i].Update(v)
	}
	a.n++
}

// Predict implements Predictor.
func (a *Adaptive) Predict() float64 { return a.sub(a.Best()).Predict() }

// Best returns the index of the predictor with the lowest accumulated
// squared error.
func (a *Adaptive) Best() int {
	best := 0
	for i := 1; i < batterySize; i++ {
		if a.sqerr[i] < a.sqerr[best] {
			best = i
		}
	}
	return best
}

// BestName returns the current best sub-predictor's name.
func (a *Adaptive) BestName() string { return a.sub(a.Best()).Name() }

// Name implements Predictor.
func (a *Adaptive) Name() string { return "adaptive" }

// Reset implements Predictor: it resets every sub-predictor and zeroes
// the error trackers, so the battery behaves exactly like a fresh
// NewAdaptive.
func (a *Adaptive) Reset() {
	for i := range batterySize {
		a.sub(i).Reset()
	}
	a.sqerr = [batterySize]float64{}
	a.n = 0
}

// RMSE evaluates a predictor on a series: at each step it predicts,
// observes, and accumulates the squared error (the first prediction,
// made with no history, is skipped).
func RMSE(p Predictor, series []float64) float64 {
	if len(series) < 2 {
		return 0
	}
	sum := 0.0
	for i, v := range series {
		if i > 0 {
			d := p.Predict() - v
			sum += float64(d * d)
		}
		p.Update(v)
	}
	return math.Sqrt(sum / float64(len(series)-1))
}
