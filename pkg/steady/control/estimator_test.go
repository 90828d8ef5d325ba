package control

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/pkg/steady"
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

// TestEstimatorGuard is the one table for the measurement guard the
// telemetry path relies on, posted through Observe, the package's only
// entry: a hostile value is refused with an error that wraps
// forecast.ErrBadMeasurement, never reaches a forecaster — so the next
// estimate stays nominal, drift stays zero, and rat.ApproxFloat never
// sees a value it would panic on — and leaves the other series
// untouched. A compute cost for a forwarder-only node is refused too.
func TestEstimatorGuard(t *testing.T) {
	hostile := map[string]float64{
		"NaN":      math.NaN(),
		"+Inf":     math.Inf(1),
		"-Inf":     math.Inf(-1),
		"zero":     0,
		"negative": -0.5,
	}
	// guarded posts o to a deployment on guardStar and returns its
	// estimator with Observe's error, which must refuse o.
	guarded := func(t *testing.T, o Observation) (*estimator, error) {
		t.Helper()
		m := NewManager(Config{})
		t.Cleanup(m.Close)
		if _, err := m.Create(context.Background(), "guard", steady.Spec{Problem: "masterslave", Root: "M"}, guardStar()); err != nil {
			t.Fatal(err)
		}
		n, err := m.Observe("guard", []Observation{o})
		if n != 0 || err == nil {
			t.Fatalf("Observe(%+v) = %d, %v; want it refused", o, n, err)
		}
		return m.deps["guard"].est, err
	}
	for name, v := range hostile {
		for _, onEdge := range []bool{false, true} {
			o, want := Observation{Node: "W", Value: v}, "node W"
			if onEdge {
				o, want = Observation{From: "M", To: "W", Value: v}, "edge M>W"
			}
			t.Run(name+" "+want, func(t *testing.T) {
				e, err := guarded(t, o)
				if !errors.Is(err, forecast.ErrBadMeasurement) {
					t.Fatalf("err = %v, want forecast.ErrBadMeasurement", err)
				}
				if _, _, n := e.nodes[1].state(); n != 0 {
					t.Fatalf("node series counts %d observations", n)
				}
				if _, _, n := e.edges[0].state(); n != 0 {
					t.Fatalf("edge series counts %d observations", n)
				}
				if d := e.drift(); d != 0 {
					t.Fatalf("drift = %v after a rejected measurement", d)
				}
				est := e.estimate()
				if !est.Weight(1).Val.Equal(rat.FromInt(2)) || !est.Edge(0).C.Equal(rat.FromInt(1)) {
					t.Fatalf("rejected measurement reached the model: w=%v c=%v", est.Weight(1).Val, est.Edge(0).C)
				}
			})
		}
	}

	e, _ := guarded(t, Observation{Node: "F", Value: 1})
	if _, _, n := e.nodes[2].state(); n != 0 || !e.estimate().Weight(2).Inf {
		t.Fatal("forwarder-only node gained a compute cost")
	}
}

// TestEstimatorStep walks one step of the loop: observe, drift against
// the model in force, estimate, adopt the estimate, no drift left.
func TestEstimatorStep(t *testing.T) {
	e := newEstimator(guardStar())
	if e.model != e.base || e.drift() != 0 {
		t.Fatal("a fresh estimator must hold the base platform as its model, with no drift")
	}
	e.observeEdge(0, 1.5)
	e.observeNode(1, 2.5)
	if f, pred, n := e.edges[0].state(); f != 1.5 || pred == "" || n != 1 {
		t.Fatalf("edge series = (%v, %q, %d), want (1.5, a predictor, 1)", f, pred, n)
	}
	if f, pred, n := e.edges[1].state(); f != 0 || pred != "" || n != 0 {
		t.Fatalf("unobserved series = (%v, %q, %d), want zeros", f, pred, n)
	}
	// 1 -> 1.5 is 50 %, 2 -> 2.5 is 25 %: the maximum wins.
	if d := e.drift(); d != 0.5 {
		t.Fatalf("drift = %v, want 0.5", d)
	}
	est := e.estimate()
	if got := est.Edge(0).C; !got.Equal(rat.New(3, 2)) {
		t.Fatalf("estimated c(M>W) = %v, want 3/2", got)
	}
	if got := est.Weight(1).Val; !got.Equal(rat.New(5, 2)) {
		t.Fatalf("estimated w(W) = %v, want 5/2", got)
	}
	if got := est.Edge(1).C; !got.Equal(rat.FromInt(3)) {
		t.Fatalf("unobserved c(M>F) = %v, want the nominal 3", got)
	}
	if e.model != e.base {
		t.Fatal("estimate must not change the model in force")
	}
	e.setModel(est)
	if e.model != est || e.drift() != 0 {
		t.Fatalf("after adopting the estimate: drift = %v, want 0", e.drift())
	}
	// Denominators are bounded by maxDen.
	e.observeEdge(1, math.Pi)
	if got := e.estimate().Edge(1).C; !got.Equal(rat.New(355, 113)) {
		t.Fatalf("estimated c(M>F) = %v, want 355/113 (best approximation of pi under 4096)", got)
	}
}

// TestEstimatedPlatformTracksObservations: repeated measurements of a
// worker and its link move the estimate to them, and an unobserved
// node keeps its nominal cost.
func TestEstimatedPlatformTracksObservations(t *testing.T) {
	e := newEstimator(platform.Star(platform.WInt(4),
		[]platform.Weight{platform.WInt(2)}, []rat.Rat{rat.FromInt(1)}))
	// The worker really takes 6 s/task, its link 2 s/file.
	for i := 0; i < 5; i++ {
		e.observeNode(1, 6)
		e.observeEdge(0, 2)
	}
	est := e.estimate()
	if got := est.Weight(1).Val.Float64(); got < 5.5 || got > 6.5 {
		t.Fatalf("estimated worker weight %v, want ~6", got)
	}
	if got := est.Edge(0).C.Float64(); got < 1.8 || got > 2.2 {
		t.Fatalf("estimated link cost %v, want ~2", got)
	}
	if !est.Weight(0).Val.Equal(rat.FromInt(4)) {
		t.Fatal("unobserved master weight changed")
	}
}

// driftEstimator is an estimator over the size of platform bench/'s
// control_drift tracks, every series observed past its longest window.
func driftEstimator() *estimator {
	e := newEstimator(platform.RandomConnected(rand.New(rand.NewSource(10)), 10, 10, 5, 5, 0))
	for round := 0; round < 32; round++ {
		for i := 0; i < e.base.NumNodes(); i++ {
			e.observeNode(i, 1+float64((round+i)%7)/8)
		}
		for i := 0; i < e.base.NumEdges(); i++ {
			e.observeEdge(i, 1+float64((round+i)%5)/8)
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
		e.observeEdge(3, v)
		e.observeNode(2, v)
	}); allocs != 0 {
		t.Fatalf("%.1f allocations per observeEdge + observeNode, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { e.drift() }); allocs != 0 {
		t.Fatalf("%.1f allocations per drift, want 0", allocs)
	}
}

func BenchmarkEstimatorObserveEdge(b *testing.B) {
	e := driftEstimator()
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		e.observeEdge(i%e.base.NumEdges(), 1+float64(i%13)/16)
		i++
	}
}

func BenchmarkEstimatorDrift(b *testing.B) {
	e := driftEstimator()
	b.ReportAllocs()
	for b.Loop() {
		e.drift()
	}
}
