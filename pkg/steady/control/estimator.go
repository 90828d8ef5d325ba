package control

import (
	"math"

	"repro/pkg/steady/control/forecast"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

// maxDen bounds the denominators of measured values fed into the
// exact LP (continued-fraction approximation of float measurements).
const maxDen = 1 << 12

// series is one measured cost: a node's seconds per task or an edge's
// seconds per file.
type series struct {
	f   *forecast.Adaptive
	n   int64   // accepted observations
	cur float64 // the cost in the model in force
}

func newSeries(n int) []series {
	s := make([]series, n)
	for i := range s {
		s[i].f = forecast.NewAdaptive()
	}
	return s
}

// predict returns the series' forecast and whether it may enter a
// platform model: at least one observation, and a value the shared
// guard accepts. A forecast can fail the guard even over valid
// observations (a smoothed series decaying to a denormal that rounds
// to zero), and rat.ApproxFloat panics on non-finite input.
func (s *series) predict() (float64, bool) {
	if s.n == 0 {
		return 0, false
	}
	f := s.f.Predict()
	return f, forecast.CheckMeasurement(f) == nil
}

// state reports the series' forecast, the sub-predictor behind it and
// the number of accepted observations, all zero before the first one.
func (s *series) state() (value float64, predictor string, n int64) {
	if s.n == 0 {
		return 0, "", 0
	}
	return s.f.Predict(), s.f.BestName(), s.n
}

// estimator is the measurement half of a deployment's §5.5 loop: one
// NWS-style forecaster per node and per edge of a base platform, fed
// through the shared measurement guard; the largest relative drift of
// those forecasts against the model in force (the platform the current
// schedule was solved on); and the next model, the base platform with
// every forecast cost replaced by its continued-fraction
// approximation. What to do about drift — when to re-solve, with which
// solver — is the Manager's. Not safe for concurrent use.
//
// byName resolves a telemetry name to its node in one lookup. Its keys
// are base's own names, so a name it holds lives in base's name block,
// never in the request body it was looked up from.
type estimator struct {
	base   *platform.Platform
	byName map[string]int
	model  *platform.Platform
	nodes  []series
	edges  []series
}

// newEstimator starts empty series over base, with base itself as the
// model in force.
func newEstimator(base *platform.Platform) *estimator {
	e := &estimator{
		base:   base,
		byName: make(map[string]int, base.NumNodes()),
		nodes:  newSeries(base.NumNodes()),
		edges:  newSeries(base.NumEdges()),
	}
	for i := range base.NumNodes() {
		// A name can repeat only in a platform built with AddNode; the
		// first node keeps it, as in NodeByName.
		if _, dup := e.byName[base.Name(i)]; !dup {
			e.byName[base.Name(i)] = i
		}
	}
	e.setModel(base)
	return e
}

// node returns the index of the named node of base, or -1: what
// base.NodeByName returns, without its scan.
func (e *estimator) node(name string) int {
	if i, ok := e.byName[name]; ok {
		return i
	}
	return -1
}

// joins reports whether edge i of base runs from a node named from to
// one named to.
func (e *estimator) joins(i int, from, to string) bool {
	ed := e.base.Edge(i)
	return e.base.Name(ed.From) == from && e.base.Name(ed.To) == to
}

// setModel records m — base's topology, typically an earlier estimate
// that has since been solved — as the model drift measures against.
func (e *estimator) setModel(m *platform.Platform) {
	e.model = m
	for i := range e.nodes {
		if w := m.Weight(i); !w.Inf {
			e.nodes[i].cur = w.Val.Float64()
		}
	}
	for i, ed := range m.Edges() {
		e.edges[i].cur = ed.C.Float64()
	}
}

// observeNode feeds node i's series one measured compute cost. The
// caller has validated both: i is not forwarder-only and v passes
// forecast.CheckMeasurement (Manager.Observe, the package's only entry,
// checks each value once).
func (e *estimator) observeNode(i int, v float64) {
	e.nodes[i].f.Update(v)
	e.nodes[i].n++
}

// observeEdge is observeNode for edge i's transfer cost.
func (e *estimator) observeEdge(i int, v float64) {
	e.edges[i].f.Update(v)
	e.edges[i].n++
}

// drift returns the largest relative change between a series' forecast
// and its cost in the model in force. Series without a usable forecast
// are skipped: they can never enter a model, so they must not trigger
// solves either.
func (e *estimator) drift() float64 {
	max := 0.0
	for _, ss := range [2][]series{e.nodes, e.edges} {
		for i := range ss {
			if f, ok := ss[i].predict(); ok {
				if rel := math.Abs(f-ss[i].cur) / ss[i].cur; rel > max {
					max = rel
				}
			}
		}
	}
	return max
}

// estimate builds the next model: base's topology, with each node
// weight and edge cost that has a usable forecast replaced by the
// forecast's continued-fraction approximation (denominator at most
// maxDen) and the nominal value kept elsewhere, so the result is
// always a valid platform.
func (e *estimator) estimate() *platform.Platform {
	q := platform.New()
	for i := range e.nodes {
		w := e.base.Weight(i)
		if f, ok := e.nodes[i].predict(); ok {
			w = platform.W(rat.ApproxFloat(f, maxDen))
		}
		q.AddNode(e.base.Name(i), w)
	}
	for i, ed := range e.base.Edges() {
		c := ed.C
		if f, ok := e.edges[i].predict(); ok {
			c = rat.ApproxFloat(f, maxDen)
		}
		q.AddEdge(ed.From, ed.To, c)
	}
	return q
}
