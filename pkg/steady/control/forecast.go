package control

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

// batterySize is the number of predictors in a battery.
const batterySize = 8

// predictorNames labels a battery's predictors, in battery order: the
// order best indexes and breaks ties by.
var predictorNames = [batterySize]string{
	"last", "mean",
	"window-mean(5)", "window-mean(20)",
	"window-median(5)", "window-median(20)",
	"exp(0.20)", "exp(0.50)",
}

// The battery's window widths and smoothing parameters, in battery
// order.
var (
	widths = [2]int{5, 20}
	alphas = [2]float64{0.2, 0.5}
)

// battery is the NWS mixture over one series: eight predictors run side
// by side — the last value, the running mean, a mean and a median over
// each window width, and an exponential smoothing per alpha — and the
// forecast is that of the one whose squared error has summed lowest so
// far. The zero value has seen nothing and forecasts 0.
//
// Forecasts are part of the reproducible output (the golden epoch logs
// pin their bits), so the arithmetic is fixed: every float64(...)
// around a product forbids a fused multiply-add, and a window mean adds
// its ring up oldest to newest on every call where a running sum would
// round differently.
type battery struct {
	n     int64 // observations fed
	last  float64
	sum   float64
	win   [2]ring
	exp   [2]float64
	sqerr [batterySize]float64
}

// forecasts returns every predictor's forecast, in battery order.
func (b *battery) forecasts() [batterySize]float64 {
	return [batterySize]float64{
		b.last, b.mean(),
		b.win[0].mean(), b.win[1].mean(),
		b.win[0].median(), b.win[1].median(),
		b.exp[0], b.exp[1],
	}
}

// forecast returns predictor i's forecast.
func (b *battery) forecast(i int) float64 {
	switch i {
	case 0:
		return b.last
	case 1:
		return b.mean()
	case 2, 3:
		return b.win[i-2].mean()
	case 4, 5:
		return b.win[i-4].median()
	default:
		return b.exp[i-6]
	}
}

func (b *battery) mean() float64 {
	if b.n == 0 {
		return 0
	}
	return b.sum / float64(b.n)
}

// update scores every predictor's forecast against v, then feeds v to
// all of them.
func (b *battery) update(v float64) {
	if b.n == 0 {
		b.exp = [2]float64{v, v}
	} else {
		for i, f := range b.forecasts() {
			d := f - v
			b.sqerr[i] += float64(d * d)
		}
		for i, a := range alphas {
			b.exp[i] = float64(a*v) + float64((1-a)*b.exp[i])
		}
	}
	b.last = v
	b.sum += v
	for i, k := range widths {
		b.win[i].push(v, k)
	}
	b.n++
}

// best returns the index of the predictor with the lowest summed
// squared error, the lowest index among ties.
func (b *battery) best() int {
	best := 0
	for i := 1; i < batterySize; i++ {
		if b.sqerr[i] < b.sqerr[best] {
			best = i
		}
	}
	return best
}

// predict returns the best predictor's forecast.
func (b *battery) predict() float64 { return b.forecast(b.best()) }

// maxWidth is the widest window a ring holds.
const maxWidth = 20

// ring is the last k observations of a series, k at most maxWidth, and
// a copy of them kept sorted, so a window's mean and median read one
// ring and neither allocates. The sorted copy is in cmp.Less order:
// total, NaNs first (where sort.Float64s puts them too), so the value
// push evicts is always found, whatever floats a caller feeds.
type ring struct {
	n      int // values held, up to k
	head   int // the oldest value, once n == k
	buf    [maxWidth]float64
	sorted [maxWidth]float64
}

// push records v in a ring of width k. The evicted value leaves the
// sorted copy and v enters it, shifting only what lies between the
// two. A window is at most a few dozen values, so a linear walk finds
// both places: it costs less than a binary search, whose every step is
// a branch that random telemetry mispredicts half the time.
func (r *ring) push(v float64, k int) {
	if r.n < k {
		r.buf[r.n] = v
		s := r.sorted[:r.n+1]
		at := rank(s[:r.n], v)
		copy(s[at+1:], s[at:])
		s[at] = v
		r.n++
		return
	}
	old := r.buf[r.head]
	r.buf[r.head] = v
	if r.head++; r.head == k {
		r.head = 0
	}
	// Walk from the evicted value's place toward v's, moving each value
	// in between one step into the gap.
	s := r.sorted[:k]
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

// mean adds the window up oldest to newest.
func (r *ring) mean() float64 {
	if r.n == 0 {
		return 0
	}
	s := 0.0
	for _, v := range r.buf[r.head:r.n] {
		s += v
	}
	for _, v := range r.buf[:r.head] {
		s += v
	}
	return s / float64(r.n)
}

func (r *ring) median() float64 {
	s := r.sorted[:r.n]
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
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
