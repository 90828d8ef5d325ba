package adaptive

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/pkg/steady/control/forecast"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

// guardStar is a master with one worker and one forwarder-only node.
func guardStar() *platform.Platform {
	p := platform.New()
	m := p.AddNode("M", platform.WInt(4))
	w := p.AddNode("W", platform.WInt(2))
	f := p.AddNode("F", platform.WInf())
	p.AddEdge(m, w, rat.FromInt(1))
	p.AddEdge(m, f, rat.FromInt(3))
	return p
}

// TestEstimatorGuard is the one table for the measurement guard both
// §5.5 callers rely on (the simulator's Ingest and the control plane's
// telemetry path): a hostile value is refused with an error that wraps
// forecast.ErrBadMeasurement and names the series, never reaches a
// forecaster — so the next Estimate stays nominal, Drift stays zero,
// and rat.ApproxFloat never sees a value it would panic on — and
// leaves the other series untouched.
func TestEstimatorGuard(t *testing.T) {
	hostile := map[string]float64{
		"NaN":      math.NaN(),
		"+Inf":     math.Inf(1),
		"-Inf":     math.Inf(-1),
		"zero":     0,
		"negative": -0.5,
	}
	for name, v := range hostile {
		for _, onEdge := range []bool{false, true} {
			want := "node W"
			if onEdge {
				want = "edge M>W"
			}
			t.Run(name+" "+want, func(t *testing.T) {
				e := NewEstimator(guardStar())
				var err error
				if onEdge {
					err = e.ObserveEdge(0, v)
				} else {
					err = e.ObserveNode(1, v)
				}
				if !errors.Is(err, forecast.ErrBadMeasurement) || !strings.Contains(err.Error(), want) {
					t.Fatalf("err = %v, want forecast.ErrBadMeasurement naming %s", err, want)
				}
				if _, _, n := e.NodeSeries(1); n != 0 {
					t.Fatalf("node series counts %d observations", n)
				}
				if _, _, n := e.EdgeSeries(0); n != 0 {
					t.Fatalf("edge series counts %d observations", n)
				}
				if d := e.Drift(); d != 0 {
					t.Fatalf("drift = %v after a rejected measurement", d)
				}
				est := e.Estimate()
				if !est.Weight(1).Val.Equal(rat.FromInt(2)) || !est.Edge(0).C.Equal(rat.FromInt(1)) {
					t.Fatalf("rejected measurement reached the model: w=%v c=%v", est.Weight(1).Val, est.Edge(0).C)
				}
			})
		}
	}

	e := NewEstimator(guardStar())
	if err := e.ObserveNode(2, 1); err == nil {
		t.Fatal("a compute cost was accepted for a forwarder-only node")
	}
	if !e.Estimate().Weight(2).Inf {
		t.Fatal("forwarder-only node gained a compute cost")
	}
}

// TestEstimatorStep walks the shared step once: observe, drift against
// the model in force, estimate, adopt the estimate, no drift left.
func TestEstimatorStep(t *testing.T) {
	e := NewEstimator(guardStar())
	if e.Model() != e.Base() || e.Drift() != 0 {
		t.Fatal("a fresh estimator must hold the base platform as its model, with no drift")
	}
	if err := e.ObserveEdge(0, 1.5); err != nil {
		t.Fatal(err)
	}
	if err := e.ObserveNode(1, 2.5); err != nil {
		t.Fatal(err)
	}
	if f, pred, n := e.EdgeSeries(0); f != 1.5 || pred == "" || n != 1 {
		t.Fatalf("edge series = (%v, %q, %d), want (1.5, a predictor, 1)", f, pred, n)
	}
	if f, pred, n := e.EdgeSeries(1); f != 0 || pred != "" || n != 0 {
		t.Fatalf("unobserved series = (%v, %q, %d), want zeros", f, pred, n)
	}
	// 1 -> 1.5 is 50 %, 2 -> 2.5 is 25 %: the maximum wins.
	if d := e.Drift(); d != 0.5 {
		t.Fatalf("drift = %v, want 0.5", d)
	}
	est := e.Estimate()
	if got := est.Edge(0).C; !got.Equal(rat.New(3, 2)) {
		t.Fatalf("estimated c(M>W) = %v, want 3/2", got)
	}
	if got := est.Weight(1).Val; !got.Equal(rat.New(5, 2)) {
		t.Fatalf("estimated w(W) = %v, want 5/2", got)
	}
	if got := est.Edge(1).C; !got.Equal(rat.FromInt(3)) {
		t.Fatalf("unobserved c(M>F) = %v, want the nominal 3", got)
	}
	if e.Model() != e.Base() {
		t.Fatal("Estimate must not change the model in force")
	}
	e.SetModel(est)
	if e.Model() != est || e.Drift() != 0 {
		t.Fatalf("after adopting the estimate: drift = %v, want 0", e.Drift())
	}
	// Denominators are bounded by maxDen.
	if err := e.ObserveEdge(1, math.Pi); err != nil {
		t.Fatal(err)
	}
	if got := e.Estimate().Edge(1).C; !got.Equal(rat.New(355, 113)) {
		t.Fatalf("estimated c(M>F) = %v, want 355/113 (best approximation of pi under 4096)", got)
	}
}

// driftEstimator is an estimator over the size of platform bench/'s
// control_drift tracks, every series observed past its longest window.
func driftEstimator() *Estimator {
	e := NewEstimator(platform.RandomConnected(rand.New(rand.NewSource(10)), 10, 10, 5, 5, 0))
	for round := 0; round < 32; round++ {
		for i := 0; i < e.Base().NumNodes(); i++ {
			_ = e.ObserveNode(i, 1+float64((round+i)%7)/8)
		}
		for i := 0; i < e.Base().NumEdges(); i++ {
			_ = e.ObserveEdge(i, 1+float64((round+i)%5)/8)
		}
	}
	return e
}

// TestEstimatorAllocations: the two calls the control plane makes per
// observation and per tick — feed a series, measure drift — are free
// of the heap in steady state.
func TestEstimatorAllocations(t *testing.T) {
	e := driftEstimator()
	v := 1.0
	if allocs := testing.AllocsPerRun(1000, func() {
		v += 1.0 / 64
		if err := e.ObserveEdge(3, v); err != nil {
			t.Fatal(err)
		}
		if err := e.ObserveNode(2, v); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("%.1f allocations per ObserveEdge + ObserveNode, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { e.Drift() }); allocs != 0 {
		t.Fatalf("%.1f allocations per Drift, want 0", allocs)
	}
}

func BenchmarkEstimatorObserveEdge(b *testing.B) {
	e := driftEstimator()
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		_ = e.ObserveEdge(i%e.Base().NumEdges(), 1+float64(i%13)/16)
		i++
	}
}

func BenchmarkEstimatorDrift(b *testing.B) {
	e := driftEstimator()
	b.ReportAllocs()
	for b.Loop() {
		e.Drift()
	}
}
