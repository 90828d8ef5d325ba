package event

import (
	"math/rand"
	"sort"
)

// LoadTrace is a piecewise-constant multiplier applied to a
// resource's base cost (>1 = slower). It models the load variations
// that §5.5's dynamic scheduling responds to; an NWS-like monitor
// observes it only through measurements.
type LoadTrace struct {
	times []float64 // breakpoints, strictly increasing, starting at 0
	mult  []float64 // multiplier on [times[i], times[i+1])
}

// ConstantLoad returns a trace with a fixed multiplier.
func ConstantLoad(m float64) *LoadTrace {
	return &LoadTrace{times: []float64{0}, mult: []float64{m}}
}

// StepLoad returns a trace that switches multipliers at the given
// breakpoints: mult[i] applies from times[i] (times[0] must be 0).
func StepLoad(times, mult []float64) *LoadTrace {
	if len(times) != len(mult) || len(times) == 0 || times[0] != 0 {
		panic("event: malformed step load trace")
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			panic("event: load trace breakpoints must increase")
		}
	}
	return &LoadTrace{times: append([]float64(nil), times...), mult: append([]float64(nil), mult...)}
}

// RandomWalkLoad builds a load trace that re-draws a multiplier in
// [lo, hi] every step time units (a coarse model of ambient load).
// All randomness comes from the caller-seeded rng, preserving the
// package's determinism contract.
func RandomWalkLoad(rng *rand.Rand, horizon, step, lo, hi float64) *LoadTrace {
	var times, mult []float64
	m := lo + float64(rng.Float64()*(hi-lo))
	for t := 0.0; t < horizon; t += step {
		times = append(times, t)
		mult = append(mult, m)
		// Random walk with reflection.
		m += float64((float64(rng.Float64()) - 0.5) * (hi - lo) * 0.4)
		if m < lo {
			m = 2*lo - m
		}
		if m > hi {
			m = 2*hi - m
		}
	}
	return &LoadTrace{times: times, mult: mult}
}

// At returns the multiplier in effect at time t. A nil or empty trace
// is the identity (multiplier 1). Times before the first breakpoint
// clamp to the first segment and times past the last breakpoint hold
// the last multiplier, so callers may query any t without range
// checks.
func (tr *LoadTrace) At(t float64) float64 {
	if tr == nil || len(tr.mult) == 0 {
		return 1
	}
	i := sort.SearchFloat64s(tr.times, t)
	// SearchFloat64s returns the first index with times[i] >= t; the
	// active segment is the one before, unless t hits a breakpoint.
	if i < len(tr.times) && tr.times[i] == t {
		return tr.mult[i]
	}
	if i == 0 {
		return tr.mult[0]
	}
	return tr.mult[i-1]
}

// Mean returns the average multiplier over [0, horizon]. A nil or
// empty trace means 1; a non-positive horizon degenerates to At(0).
func (tr *LoadTrace) Mean(horizon float64) float64 {
	if tr == nil || len(tr.mult) == 0 {
		return 1
	}
	if horizon <= 0 {
		return tr.At(0)
	}
	total := 0.0
	for i := range tr.times {
		start := tr.times[i]
		if start >= horizon {
			break
		}
		end := horizon
		if i+1 < len(tr.times) && tr.times[i+1] < horizon {
			end = tr.times[i+1]
		}
		total += float64(tr.mult[i] * (end - start))
	}
	return total / horizon
}
