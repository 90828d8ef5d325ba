package server

import (
	"sync"
	"time"

	"repro/pkg/steady/obs"
)

// latencyBucketLabels are the /v1/stats names of the shared log-bucket
// scheme (obs.DurationBuckets): decades from 100µs to 10s, plus an
// overflow. They exist so the JSON view stays byte-compatible with the
// historical hand-rolled histograms while the data lives in the
// registry.
var latencyBucketLabels = []string{"<=100us", "<=1ms", "<=10ms", "<=100ms", "<=1s", "<=10s"}

const overflowBucket = ">10s"

// solverInst is the resolved instrument set of one solver, cached so
// the per-request hot path is a sync.Map load plus atomic updates —
// no registry or label-map lookups, and no shared mutex (the
// historical implementation allocated per-solver map entries under a
// single lock; BenchmarkStatsUnderLoad covers the difference).
type solverInst struct {
	requests *obs.Counter
	errors   *obs.Counter
	hits     *obs.Counter
	latency  *obs.Histogram
}

// metrics aggregates per-solver request latencies on the shared
// registry. With a nil registry (Config.DisableMetrics) every
// instrument is nil, a no-op, and snapshot reports nothing.
type metrics struct {
	reg      *obs.Registry
	requests *obs.CounterVec
	errors   *obs.CounterVec
	hits     *obs.CounterVec
	latency  *obs.HistogramVec

	solvers sync.Map // solver name -> *solverInst
}

func newMetrics(reg *obs.Registry) *metrics {
	m := &metrics{reg: reg}
	m.requests = reg.CounterVec("steady_solve_requests_total",
		"Solve requests observed, by solver (cache hits and errors included).", "solver")
	m.errors = reg.CounterVec("steady_solve_errors_total",
		"Failed solve requests, by solver.", "solver")
	m.hits = reg.CounterVec("steady_solve_cache_hits_total",
		"Solve requests served from the LP-solution cache, by solver.", "solver")
	m.latency = reg.HistogramVec("steady_solve_duration_seconds",
		"End-to-end solve request wall time, by solver.", nil, "solver")
	return m
}

// inst resolves (and caches) the named solver's instruments.
func (m *metrics) inst(solver string) *solverInst {
	if v, ok := m.solvers.Load(solver); ok {
		return v.(*solverInst)
	}
	in := &solverInst{
		requests: m.requests.With(solver),
		errors:   m.errors.With(solver),
		hits:     m.hits.With(solver),
		latency:  m.latency.With(solver),
	}
	actual, _ := m.solvers.LoadOrStore(solver, in)
	return actual.(*solverInst)
}

// observe records one finished request for the named solver.
func (m *metrics) observe(solver string, elapsed time.Duration, failed, cacheHit bool) {
	in := m.inst(solver)
	in.requests.Inc()
	if failed {
		in.errors.Inc()
	}
	if cacheHit {
		in.hits.Inc()
	}
	in.latency.Observe(elapsed.Seconds())
}

// snapshot renders the per-solver histograms for GET /v1/stats,
// reading the same registry series /metrics exposes. Finite buckets
// are cumulative, Prometheus-style: "<=10ms" counts every request at
// or under 10ms, so "<=10s" equals Count minus the ">10s" overflow.
func (m *metrics) snapshot() map[string]SolverStatsJSON {
	out := map[string]SolverStatsJSON{}
	if m.reg == nil {
		return out
	}
	m.solvers.Range(func(k, v any) bool {
		in := v.(*solverInst)
		h := in.latency
		s := SolverStatsJSON{
			Count:     in.requests.Value(),
			Errors:    in.errors.Value(),
			CacheHits: in.hits.Value(),
			MaxMicros: time.Duration(h.Max() * float64(time.Second)).Microseconds(),
			Buckets:   make(map[string]int64, len(latencyBucketLabels)+1),
		}
		if n := h.Count(); n > 0 {
			mean := h.Sum() / float64(n)
			s.MeanMicros = time.Duration(mean * float64(time.Second)).Microseconds()
		}
		counts := h.Snapshot()
		cum := int64(0)
		for i, label := range latencyBucketLabels {
			cum += counts[i]
			s.Buckets[label] = cum
		}
		if over := counts[len(counts)-1]; over > 0 {
			s.Buckets[overflowBucket] = over
		}
		out[k.(string)] = s
		return true
	})
	return out
}

// simMetrics counts the server's simulation traffic on the registry.
// The deeper substrate metrics (events processed, heap high-water,
// extrapolations) come from the sim engine itself via sim.Config.Obs;
// these counters are the request-level view /v1/stats reports.
type simMetrics struct {
	runs       *obs.Counter
	errors     *obs.Counter
	sweepCells *obs.Counter
	substrate  *obs.CounterVec
}

func newSimMetrics(reg *obs.Registry) *simMetrics {
	m := &simMetrics{}
	m.runs = reg.Counter("steady_server_sim_runs_total",
		"POST /v1/simulate runs (errors included).")
	m.errors = reg.Counter("steady_server_sim_errors_total",
		"Failed simulation runs and sweep cells.")
	m.sweepCells = reg.Counter("steady_server_sim_sweep_cells_total",
		"Cells simulated through POST /v1/simsweep (errors included).")
	m.substrate = reg.CounterVec("steady_server_sim_substrate_total",
		"Successful simulations by substrate.", "kind")
	return m
}

// observe records one finished simulation. kind is the report's
// substrate ("periodic", "online", "greedy"); sweep marks /v1/simsweep
// cells rather than single /v1/simulate runs.
func (m *simMetrics) observe(kind string, failed, sweep bool) {
	if sweep {
		m.sweepCells.Inc()
	} else {
		m.runs.Inc()
	}
	if failed {
		m.errors.Inc()
		return
	}
	switch kind {
	case "periodic", "online", "greedy":
		m.substrate.With(kind).Inc()
	}
}

func (m *simMetrics) snapshot() SimStatsJSON {
	return SimStatsJSON{
		Runs:       m.runs.Value(),
		Errors:     m.errors.Value(),
		SweepCells: m.sweepCells.Value(),
		Periodic:   m.substrate.With("periodic").Value(),
		Online:     m.substrate.With("online").Value(),
		Greedy:     m.substrate.With("greedy").Value(),
	}
}

// decodePaths counts which reader took a request body on an endpoint
// that has two: the one-pass scanner of the plain spelling, or the
// strict reflective decoder it declined to — which then accepted or
// refused the body. Pre-resolved, and nil-safe like every instrument.
type decodePaths struct{ scan, strict *obs.Counter }

// newDecodePaths registers steady_<endpoint>_decode_total{path}; what
// names what is read and strict the reader behind the scanner in the
// help text.
func newDecodePaths(reg *obs.Registry, endpoint, what, strict string) decodePaths {
	paths := reg.CounterVec("steady_"+endpoint+"_decode_total",
		what+" by the reader that took them: the one-pass scanner of the plain spelling, or "+strict+".", "path")
	return decodePaths{scan: paths.With("scan"), strict: paths.With("strict")}
}
