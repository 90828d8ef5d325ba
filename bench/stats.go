package main

import (
	"math"
	"sort"
)

// quantile returns the q-th quantile of an ascending slice, exactly
// (no buckets), by the same rule as Python's statistics.quantiles
// default: position q*(n+1) counted from 1, linearly interpolated and
// clamped to the ends. q = 0.5 is the ordinary median.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0 // no samples: callers report the metric as not applicable
	}
	pos := q*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	lo := int(pos)
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// summary is a metric's value over repetitions (or over the runs of a
// set): the median is what is reported and compared, the quartiles
// say how far single repetitions wandered.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(values []float64) summary {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return summary{
		Median: quantile(s, 0.5),
		Q1:     quantile(s, 0.25),
		Q3:     quantile(s, 0.75),
		N:      len(s),
	}
}

// spread is the interquartile distance as a share of the median, the
// measure the acceptance rule compares with a metric's bound.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func medianOf(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}
