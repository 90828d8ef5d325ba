package main

import (
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// TestQuantile: percentiles read off the shared obs.Histogram are
// bucket upper bounds — never under the true value, and a sample on a
// bound belongs to that bucket —, a quantile that falls past the last
// bound is the observed maximum, and an empty histogram reports 0.
func TestQuantile(t *testing.T) {
	var ramp []int64 // 1..100 ms in 1 ms steps: true p10 11 ms, p50 51, p90 91, p99 100
	for ms := int64(1); ms <= 100; ms++ {
		ramp = append(ramp, ms*1000)
	}
	repeat := func(n int, us int64) []int64 { return slices.Repeat([]int64{us}, n) }
	for _, c := range []struct {
		name               string
		samples            []int64
		p10, p50, p90, p99 int64
	}{
		{"empty", nil, 0, 0, 0, 0},
		{"ramp", ramp, 20000, 100000, 100000, 100000},
		{"three clusters", slices.Concat(repeat(50, 100), repeat(40, 150), repeat(9, 1500), repeat(1, 700000)), 100, 200, 2000, 1000000},
		{"past the last bound", []int64{300, 2500000, 4000000}, 500, 4000000, 4000000, 4000000},
	} {
		tl := newTally()
		for _, us := range c.samples {
			tl.observe(us, 200)
		}
		got := [4]int64{quantile(tl.lat, 0.10), quantile(tl.lat, 0.50), quantile(tl.lat, 0.90), quantile(tl.lat, 0.99)}
		if want := [4]int64{c.p10, c.p50, c.p90, c.p99}; got != want {
			t.Errorf("%s: p10/p50/p90/p99 = %v, want %v", c.name, got, want)
		}
	}
}

// TestRunPhaseSharesOneTally: the workers of a phase record into one
// tally, so every request they finish is in it exactly once — latency
// and status both (run under -race: the tally is the only state they
// share).
func TestRunPhaseSharesOneTally(t *testing.T) {
	var served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1)%5 == 0 {
			http.Error(w, "busy", http.StatusServiceUnavailable)
		}
	}))
	defer ts.Close()

	tl := runPhase(ts.Client(), []string{ts.URL}, []job{{path: "/v1/solve", body: []byte("{}")}}, 100*time.Millisecond, 4, 0)
	ok, busy := tl.statuses[http.StatusOK].Load(), tl.statuses[http.StatusServiceUnavailable].Load()
	if n := served.Load(); n == 0 || tl.lat.Count() != n || ok+busy != n || busy != n/5 {
		t.Fatalf("server saw %d requests; tally holds %d latencies, %d 200s, %d 503s", n, tl.lat.Count(), ok, busy)
	}
}
