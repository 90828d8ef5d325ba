// Package sim is the public simulation subsystem of the reproduction:
// it replays the reconstructed periodic schedule of any solved
// steady-state problem (every registered pkg/steady solver) in
// simulated time and reports achieved versus certified throughput,
// the startup transient, and the asymptotic-optimality ratio — §4.2's
// "asymptotically optimal" made measurable.
//
// One deterministic event core (pkg/steady/sim/event) backs both
// scenario kinds:
//
//   - Static scenarios run an exact, period-granular store-and-forward
//     replay of the schedule's integral per-period counts (big.Int
//     arithmetic, no floats) as period events on the shared loop: a
//     node forwards or consumes only what it received in earlier
//     periods, so the transient and the achieved rate are exact. Once
//     every commodity sustains its per-period quota the remaining
//     horizon is extrapolated arithmetically, so long horizons cost
//     nothing.
//   - Dynamic scenarios run the float64 online one-port simulator of
//     §5.5 on the same loop: demand-driven tasking on a shortest-path
//     overlay under bandwidth and speed traces, arrival processes,
//     failure windows, and optionally the §5.5 control loop: an
//     in-process pkg/steady/control Manager, fed each epoch's
//     observations and ticked on the simulated clock.
//
// The float boundary is explicit: certified quantities stay exact
// rationals end to end, and only scenario dynamics (load multipliers,
// event times) are float64 — see docs/ARCHITECTURE.md. Both paths can
// emit a structured event trace (RunRecorded/RunTraced), and two runs
// of the same scenario with the same seed produce byte-identical
// traces.
//
// Engine.Sweep fans (platform, solver, scenario) cells through a
// worker pool that shares pkg/steady/batch's sharded LP-solution
// cache, with streaming JSON/CSV sinks; pkg/steady/server serves the
// same engine over HTTP as POST /v1/simulate.
package sim

import (
	"context"
	"fmt"
	"io"
	"math/big"

	"repro/pkg/steady"
	"repro/pkg/steady/batch"
	"repro/pkg/steady/control"
	"repro/pkg/steady/obs"
	"repro/pkg/steady/rat"
	"repro/pkg/steady/sim/event"
)

// Config tunes an Engine. The zero value selects sensible defaults.
// Nothing here bounds a run's time: both substrates stop with the
// context they run under, and a static replay extrapolates once it
// reaches steady state, so a long horizon costs what a short one does.
type Config struct {
	// Workers bounds Sweep's worker pool; 0 = GOMAXPROCS.
	Workers int
	// Obs, when non-nil, receives per-run metrics: run and error
	// counts by kind, events processed, the event-heap high-water
	// mark, extrapolation fast-path hits, and per-run wall time.
	// Observation is strictly one-way — wall clocks feed the registry,
	// never the simulation, so traces and reports are byte-identical
	// with or without it (proven by TestTraceMatchesUntracedRun).
	Obs *obs.Registry
}

const (
	// targetRatio is the asymptotic-optimality ratio the automatic
	// static horizon is sized for.
	targetRatio = 0.95
	// defaultDynamicTasks is the task count of dynamic scenarios that
	// set neither Tasks, Horizon nor Arrivals.
	defaultDynamicTasks = 2000
)

// Engine simulates solved steady-state problems under scenarios. An
// Engine is safe for concurrent use; construct with New or
// NewWithBatch.
type Engine struct {
	cfg   Config
	batch *batch.Engine
	// published, when set, sees the deployment after every epoch an
	// adaptive run's Manager publishes, with the simulated time of its
	// tick (tests only).
	published func(now float64, snap *control.Snapshot)
}

// New returns an Engine with its own batch solve engine (used by
// Sweep to solve cells through the shared LP-solution cache).
func New(cfg Config) *Engine {
	return &Engine{cfg: cfg, batch: batch.New(cfg.Workers)}
}

// NewWithBatch returns an Engine sweeping through an existing batch
// engine, so simulation sweeps share a cache with other consumers
// (pkg/steady/server shares one across all its endpoints).
func NewWithBatch(cfg Config, b *batch.Engine) *Engine {
	if b == nil {
		b = batch.New(cfg.Workers)
	}
	return &Engine{cfg: cfg, batch: b}
}

// Report is the outcome of simulating one solved problem under one
// scenario. Exact rationals are rendered as strings ("4/3"); the
// *Value fields are nearest-float64 conveniences. For static replays
// every rational is exact; dynamic runs are float by nature and leave
// the exact fields empty.
type Report struct {
	// Solver, Problem and Model echo the simulated result.
	Solver  string `json:"solver"`
	Problem string `json:"problem"`
	Model   string `json:"model"`
	// Scenario is the scenario label.
	Scenario string `json:"scenario"`
	// Kind is the simulation substrate: "periodic" (exact replay),
	// "online" (event-driven dynamic run) or "greedy" (send-or-receive
	// evaluation).
	Kind string `json:"kind"`
	// Derived names the companion schedule replayed when the problem
	// itself has bound semantics ("multicast-trees"), empty otherwise.
	Derived string `json:"derived,omitempty"`

	// Certified is the LP objective the run is measured against.
	Certified      string  `json:"certified"`
	CertifiedValue float64 `json:"certified_value"`
	// ScheduleThroughput is the replayed schedule's own steady-state
	// rate (periodic runs): when it sits below Certified the problem's
	// bound is not met by any schedule in the replayed class — the
	// §4.3 multicast gap — as opposed to a ratio below 1 that merely
	// reflects the startup transient.
	ScheduleThroughput string `json:"schedule_throughput,omitempty"`
	// Achieved is the simulated throughput (exact for periodic runs).
	Achieved      string  `json:"achieved,omitempty"`
	AchievedValue float64 `json:"achieved_value"`
	// Ratio is Achieved / Certified, the asymptotic-optimality ratio.
	Ratio      string  `json:"ratio,omitempty"`
	RatioValue float64 `json:"ratio_value"`

	// Periods is the simulated horizon in periods and Period the
	// period length T (periodic runs).
	Periods int64  `json:"periods,omitempty"`
	Period  string `json:"period,omitempty"`
	// SteadyAfter is the first period whose completions sustain every
	// per-period quota — the startup transient length (-1 = not
	// reached; unused kinds report 0 transient as -1 too).
	SteadyAfter int64 `json:"steady_after"`
	// Ops is the total number of completed operations.
	Ops string `json:"ops,omitempty"`

	// Makespan, Done and Resolves describe dynamic runs: simulated
	// end time, tasks completed, and adaptive LP re-solves. LPPivots is
	// the total exact simplex pivots across those re-solves.
	Makespan float64 `json:"makespan,omitempty"`
	Done     int     `json:"done,omitempty"`
	Resolves int     `json:"resolves,omitempty"`
	LPPivots int64   `json:"lp_pivots,omitempty"`
	// Arrived is the number of tasks released by the scenario's
	// arrival process (0 when the master's supply is unbounded).
	Arrived int `json:"arrived,omitempty"`

	// TraceEvents is the number of structured trace records the run
	// emitted (0 unless the run was traced via RunRecorded/RunTraced
	// or the server's trace option).
	TraceEvents int64 `json:"trace_events,omitempty"`
}

// Run simulates the solved result under the scenario. Static
// scenarios replay the reconstructed schedule of any registered
// problem (deriving a tree-packing companion for the bound-semantics
// ones); dynamic scenarios require a masterslave result under the
// base port model; send-or-receive masterslave results are evaluated
// with the greedy §5.1.1 decomposition.
func (e *Engine) Run(ctx context.Context, res *steady.Result, sc Scenario) (*Report, error) {
	return e.RunRecorded(ctx, res, sc, nil)
}

// RunRecorded runs like Run while streaming the structured event
// trace of the simulation to rec (see event.Record for the schema;
// nil rec disables tracing). The trace is deterministic: the same
// result, scenario, and seed yield the same record sequence.
func (e *Engine) RunRecorded(ctx context.Context, res *steady.Result, sc Scenario, rec event.Recorder) (*Report, error) {
	if res == nil {
		return nil, fmt.Errorf("sim: nil result")
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	l := event.NewLoop()
	l.SetRecorder(rec)
	reg := e.cfg.Obs
	span := reg.StartSpan("sim_run")
	var (
		rep *Report
		err error
	)
	switch {
	case sc.Dynamic():
		rep, err = e.runDynamic(ctx, res, &sc, l)
	case res.Model == steady.SendOrReceive:
		// The greedy send-or-receive evaluation is a closed-form
		// decomposition, not a simulation: it has no events to trace.
		rep, err = greedyReport(res, &sc)
	default:
		rep, err = e.runPeriodic(ctx, res, &sc, l)
	}
	span.End()
	// Metrics are recorded after the run completes: the simulation
	// itself never touches the registry or a wall clock, which is what
	// keeps traces byte-identical with metrics enabled.
	if err != nil {
		reg.Counter("steady_sim_errors_total", "Simulation runs that returned an error.").Inc()
		return nil, err
	}
	reg.CounterVec("steady_sim_runs_total", "Simulation runs by kind.", "kind").With(rep.Kind).Inc()
	reg.Counter("steady_sim_events_total", "Events executed by the deterministic loop.").Add(l.Processed())
	reg.Gauge("steady_sim_heap_depth_highwater", "Deepest pending-event heap observed across runs.").SetMax(float64(l.MaxHeap()))
	rep.TraceEvents = l.Events()
	return rep, nil
}

// RunTraced runs like Run while writing the structured event trace as
// JSON lines to w — the on-disk/golden format of event traces.
func (e *Engine) RunTraced(ctx context.Context, res *steady.Result, sc Scenario, w io.Writer) (*Report, error) {
	rec := event.NewWriterRecorder(w)
	rep, err := e.RunRecorded(ctx, res, sc, rec)
	if err != nil {
		return nil, err
	}
	if err := rec.Err(); err != nil {
		return nil, fmt.Errorf("sim: writing trace: %w", err)
	}
	return rep, nil
}

// runPeriodic prepares the replay spec and executes the exact
// period-granular replay on the event loop.
func (e *Engine) runPeriodic(ctx context.Context, res *steady.Result, sc *Scenario, l *event.Loop) (*Report, error) {
	rp, err := res.Replay()
	if err != nil {
		return nil, err
	}
	periods := sc.Periods
	if periods <= 0 {
		periods = autoPeriods(rp)
	}
	st, err := replayPeriodic(ctx, rp, periods, l)
	if err != nil {
		return nil, err
	}
	if st.Simulated < st.Periods {
		e.cfg.Obs.Counter("steady_sim_extrapolations_total",
			"Periodic replays that confirmed steady state early and extrapolated the remaining horizon.").Inc()
	}
	achieved := st.Ratio.Mul(rp.ScheduleThroughput)
	ratio := rat.Zero()
	if rp.Certified.Sign() > 0 {
		ratio = achieved.Div(rp.Certified)
	}
	return &Report{
		Solver:             res.Solver,
		Problem:            res.Problem,
		Model:              res.Model.String(),
		Scenario:           sc.label(),
		Kind:               "periodic",
		Derived:            rp.Derived,
		Certified:          rp.Certified.String(),
		CertifiedValue:     rp.Certified.Float64(),
		ScheduleThroughput: rp.ScheduleThroughput.String(),
		Achieved:           achieved.String(),
		AchievedValue:      achieved.Float64(),
		Ratio:              ratio.String(),
		RatioValue:         ratio.Float64(),
		Periods:            st.Periods,
		Period:             rp.Period.String(),
		SteadyAfter:        st.SteadyAfter,
		Ops:                st.Ops.String(),
	}, nil
}

// autoPeriods returns the smallest horizon that provably reaches the
// target ratio: the transient is bounded by the platform depth (≤ the
// node count), and after it every period completes the full quota, so
// ratio(P) ≥ (P - n) / P.
func autoPeriods(rp *steady.Replay) int64 {
	n := int64(rp.Platform.NumNodes())
	p := int64(float64(n)/(1-targetRatio)) + 2
	if p < 4 {
		p = 4
	}
	return p
}

// greedyReport evaluates a send-or-receive masterslave result with
// the greedy general-graph decomposition (§5.1.1): reconstruction is
// NP-hard under the shared-port model, so the achieved throughput of
// the greedy schedule stands in for a replay.
func greedyReport(res *steady.Result, sc *Scenario) (*Report, error) {
	ev, err := res.EvaluateGreedy()
	if err != nil {
		return nil, err
	}
	ratio := rat.Zero()
	if ev.Bound.Sign() > 0 {
		ratio = ev.Achieved.Div(ev.Bound)
	}
	return &Report{
		Solver:         res.Solver,
		Problem:        res.Problem,
		Model:          res.Model.String(),
		Scenario:       sc.label(),
		Kind:           "greedy",
		Certified:      ev.Bound.String(),
		CertifiedValue: ev.Bound.Float64(),
		Achieved:       ev.Achieved.String(),
		AchievedValue:  ev.Achieved.Float64(),
		Ratio:          ratio.String(),
		RatioValue:     ratio.Float64(),
		SteadyAfter:    -1,
	}, nil
}

// bigRat turns an integer pair a/b into an exact rat.Rat.
func bigRat(a, b *big.Int) rat.Rat {
	return rat.FromBig(new(big.Rat).SetFrac(a, b))
}
