package server

import (
	"encoding/json"
	"fmt"

	"repro/pkg/steady"
	"repro/pkg/steady/batch"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/sim"
	"repro/pkg/steady/sim/event"
)

// SolveRequest is the body of POST /v1/solve: a problem spec plus the
// platform to solve it on. The platform uses the repository's
// canonical JSON schema (the one cmd/platgen emits and cmd/ssched
// reads): {"nodes": [{"name", "w"}], "edges": [{"from", "to", "c"}]}
// with weights and costs as exact-rational strings ("3", "1/2",
// "inf" for forwarder-only nodes).
type SolveRequest struct {
	// Problem is a registered problem name (GET /v1/solvers lists
	// them).
	Problem string `json:"problem"`
	// Root is the master / source / reduction root node name; empty
	// means the platform's first node.
	Root string `json:"root,omitempty"`
	// Targets are target node names for scatter and the multicast
	// variants.
	Targets []string `json:"targets,omitempty"`
	// Model is "send-and-receive" (default) or "send-or-receive"
	// (§5.1.1 shared-port model; masterslave and scatter only).
	Model string `json:"model,omitempty"`
	// Platform is the platform graph in canonical JSON.
	Platform json.RawMessage `json:"platform"`
}

// Spec converts the request's problem fields to a steady.Spec.
func (r *SolveRequest) Spec() (steady.Spec, error) {
	model, err := parseModel(r.Model)
	if err != nil {
		return steady.Spec{}, err
	}
	return steady.Spec{Problem: r.Problem, Root: r.Root, Targets: r.Targets, Model: model}, nil
}

func parseModel(s string) (steady.PortModel, error) {
	switch s {
	case "", steady.SendAndReceive.String():
		return steady.SendAndReceive, nil
	case steady.SendOrReceive.String():
		return steady.SendOrReceive, nil
	default:
		return 0, fmt.Errorf("unknown port model %q (want %q or %q)",
			s, steady.SendAndReceive, steady.SendOrReceive)
	}
}

// NodeActivityJSON and LinkActivityJSON are one node's compute
// activity and one link's busy fraction in a SolveResponse, as
// exact-rational strings.
type (
	NodeActivityJSON = steady.NodeRate
	LinkActivityJSON = steady.LinkRate
)

// SolveResponse is the body of a successful POST /v1/solve. All
// rational quantities are strings rendered by pkg/steady/rat, byte-
// identical to what the in-process facade returns — the service
// never converts through floats (Value is a display convenience
// only).
type SolveResponse struct {
	// Solver is the canonical solver name (problem plus parameters);
	// together with Fingerprint it is the result's cache identity.
	Solver string `json:"solver"`
	// Problem echoes the registered problem name.
	Problem string `json:"problem"`
	// Model is the port model the result was computed under.
	Model string `json:"model"`
	// Fingerprint is the canonical content hash of the platform.
	Fingerprint string `json:"fingerprint"`
	// Throughput is the exact objective value, e.g. "4/3".
	Throughput string `json:"throughput"`
	// Value is Throughput as the nearest float64, for display only.
	Value float64 `json:"value"`
	// Nodes holds per-node compute activity (masterslave only).
	Nodes []NodeActivityJSON `json:"nodes,omitempty"`
	// Links holds per-link busy fractions in platform edge order.
	Links []LinkActivityJSON `json:"links,omitempty"`
	// Trees is, for multicast-trees, the number of candidate Steiner
	// arborescences enumerated by the exact packing.
	Trees int `json:"trees,omitempty"`
	// CacheHit reports that the result was served from the shared
	// LP-solution cache instead of running a fresh solve.
	CacheHit bool `json:"cache_hit"`
	// ElapsedMicros is the request's solve wall time in microseconds
	// (near zero on a cache hit).
	ElapsedMicros int64 `json:"elapsed_us"`
}

// Generator describes a family of random connected platforms for
// POST /v1/sweep, mirroring cmd/experiments -batch: platform i has
// Sizes[i%len(Sizes)] nodes and is seeded by (Seed + size), so a
// sweep contains repeated platforms and exercises the LP-solution
// cache.
type Generator struct {
	// Kind selects the generator; only "random" (the default) is
	// currently defined.
	Kind string `json:"kind,omitempty"`
	// Count is the number of platforms in the sweep.
	Count int `json:"count"`
	// Sizes are the node counts cycled over; default [6, 8, 10, 12].
	Sizes []int `json:"sizes,omitempty"`
	// Seed seeds the random platforms; same seed, same sweep.
	Seed int64 `json:"seed,omitempty"`
	// MaxW and MaxC bound random node weights and link costs;
	// default 5 each.
	MaxW int64 `json:"max_w,omitempty"`
	MaxC int64 `json:"max_c,omitempty"`
	// ForwardOnly is the probability a node is a pure forwarder
	// (w = inf); default 0.15.
	ForwardOnly float64 `json:"forward_only,omitempty"`
}

// SweepRequest is the body of POST /v1/sweep: a problem spec plus
// either a platform generator or an explicit platform list, fanned
// out through the batch engine. Results stream back one record per
// line (NDJSON, or CSV rows) as each solve completes, so a client
// can consume a long sweep incrementally.
type SweepRequest struct {
	Problem string   `json:"problem"`
	Root    string   `json:"root,omitempty"`
	Targets []string `json:"targets,omitempty"`
	Model   string   `json:"model,omitempty"`
	// Generator describes random platforms; mutually exclusive with
	// Platforms.
	Generator *Generator `json:"generator,omitempty"`
	// Platforms is an explicit list of platforms in canonical JSON.
	Platforms []json.RawMessage `json:"platforms,omitempty"`
	// Format is "ndjson" (default) or "csv".
	Format string `json:"format,omitempty"`
}

// spec returns the sweep's problem fields in the form every other
// endpoint carries them, so one function (newSolver) builds the solver
// of any request.
func (r *SweepRequest) spec() *SolveRequest {
	return &SolveRequest{Problem: r.Problem, Root: r.Root, Targets: r.Targets, Model: r.Model}
}

// SimulateRequest is the body of POST /v1/simulate: a problem spec,
// the platform to solve it on, and the scenario to replay the
// reconstructed schedule under. An absent scenario is the static
// scenario (exact periodic replay).
type SimulateRequest struct {
	SolveRequest
	// Scenario configures the simulation (see pkg/steady/sim).
	Scenario sim.Scenario `json:"scenario"`
	// Trace requests the structured event trace of the run in the
	// response (bounded by Config.MaxTraceEvents).
	Trace bool `json:"trace,omitempty"`
}

// SimulateResponse is the body of a successful POST /v1/simulate. The
// report is byte-identical to an in-process sim.Engine run on the
// same result and scenario.
type SimulateResponse struct {
	// Report is the simulation report, with certified quantities as
	// exact-rational strings.
	Report *sim.Report `json:"report"`
	// CacheHit reports that the underlying solve came from the shared
	// LP-solution cache.
	CacheHit bool `json:"cache_hit"`
	// ElapsedMicros is solve plus simulation wall time.
	ElapsedMicros int64 `json:"elapsed_us"`
	// Trace is the structured event trace of the run, present when the
	// request set trace: true (see event.Record for kinds). Two
	// requests with the same platform, scenario, and seed return
	// byte-identical traces.
	Trace []event.Record `json:"trace,omitempty"`
	// TraceTruncated reports that the run emitted more records than
	// Config.MaxTraceEvents and the tail was dropped; the report's
	// trace_events still counts every emitted record.
	TraceTruncated bool `json:"trace_truncated,omitempty"`
}

// SimSweepRequest is the body of POST /v1/simsweep: a problem spec, a
// platform family (generator or explicit list, as in /v1/sweep), and
// a set of scenarios. Every (platform, scenario) cell is solved and
// simulated through the engine's worker pool; records stream back as
// NDJSON lines or CSV rows as cells complete.
type SimSweepRequest struct {
	SweepRequest
	// Scenarios are simulated per platform; empty means one static
	// scenario.
	Scenarios []sim.Scenario `json:"scenarios,omitempty"`
}

// SimStatsJSON is the simulation section of GET /v1/stats.
type SimStatsJSON struct {
	// Runs counts completed POST /v1/simulate simulations; Errors the
	// failed ones.
	Runs   int64 `json:"runs"`
	Errors int64 `json:"errors"`
	// SweepCells counts cells simulated through POST /v1/simsweep.
	SweepCells int64 `json:"sweep_cells"`
	// Periodic, Online and Greedy break successful simulations down
	// by substrate.
	Periodic int64 `json:"periodic"`
	Online   int64 `json:"online"`
	Greedy   int64 `json:"greedy"`
}

// SolverInfo is one entry of GET /v1/solvers.
type SolverInfo = steady.ProblemInfo

// SolversResponse is the body of GET /v1/solvers.
type SolversResponse struct {
	Problems []SolverInfo `json:"problems"`
}

// CacheStatsJSON is the cache section of GET /v1/stats.
type CacheStatsJSON struct {
	Solves   int64   `json:"solves"`
	Hits     int64   `json:"hits"`
	HitRate  float64 `json:"hit_rate"`
	InFlight int64   `json:"in_flight"`
	Entries  int     `json:"entries"`
	Shards   int     `json:"shards"`
}

// LPStatsJSON is the LP-engine section of GET /v1/stats: exact
// simplex pivot counts across every solve that went through the
// server's shared cache (/v1/solve, /v1/sweep, /v1/simulate,
// /v1/simsweep, control-plane epochs). No solve starts from another's
// basis.
type LPStatsJSON struct {
	// PivotsTotal is the simplex pivot count summed over all solves.
	PivotsTotal int64 `json:"pivots_total"`
	// WarmSolves is always 0: every solve is cold.
	//
	// Deprecated: nothing sets it; it stays for readers of the field.
	WarmSolves int64 `json:"warm_solves"`
	// ColdSolves is the number of cache-miss solves.
	ColdSolves int64 `json:"cold_solves"`
	// WarmPivots is always 0, like WarmSolves.
	//
	// Deprecated: nothing sets it; it stays for readers of the field.
	WarmPivots int64 `json:"warm_pivots"`
	// ColdPivots is PivotsTotal.
	ColdPivots int64 `json:"cold_pivots"`
	// FloatFirst is always true: every LP solve searches in float64 and
	// certifies in exact rationals, and the field stays for clients
	// that read it. FloatSolves counts the solves whose search pivoted
	// or fell back, FloatPivots their float64 search pivots (not part
	// of PivotsTotal, which counts exact pivots only), RepairPivots the
	// exact pivots spent repairing float bases during certification,
	// and ExactFallbacks the solves that fell back to the exact
	// two-phase walk. Results are certified exact on every path.
	FloatFirst     bool  `json:"float_first"`
	FloatSolves    int64 `json:"float_solves"`
	FloatPivots    int64 `json:"float_pivots"`
	RepairPivots   int64 `json:"repair_pivots"`
	ExactFallbacks int64 `json:"exact_fallbacks"`
}

// SolverStatsJSON is one solver's latency histogram in GET /v1/stats.
type SolverStatsJSON struct {
	// Count is the number of requests observed for this solver
	// (solves and cache hits alike).
	Count int64 `json:"count"`
	// Errors is the number of failed requests.
	Errors int64 `json:"errors"`
	// CacheHits is the number of requests served from the cache.
	CacheHits int64 `json:"cache_hits"`
	// MeanMicros and MaxMicros summarize the latency distribution.
	MeanMicros int64 `json:"mean_us"`
	MaxMicros  int64 `json:"max_us"`
	// Buckets is the latency histogram. Finite buckets are
	// cumulative, Prometheus-style: "<=1ms" counts every request at
	// or under 1ms (so values are non-decreasing up to "<=10s");
	// ">10s", present only when nonzero, counts the overflow.
	Buckets map[string]int64 `json:"buckets"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	UptimeSeconds float64 `json:"uptime_s"`
	// InFlightSolves is the number of LPs running right now.
	InFlightSolves int64          `json:"in_flight_solves"`
	Cache          CacheStatsJSON `json:"cache"`
	// LP reports simplex pivot counters.
	LP LPStatsJSON `json:"lp"`
	// Simulations counts simulation traffic (POST /v1/simulate and
	// /v1/simsweep).
	Simulations SimStatsJSON `json:"simulations"`
	// Solvers maps canonical solver names to per-solver request
	// latency histograms.
	Solvers map[string]SolverStatsJSON `json:"solvers"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// decodePlatform reads a request's platform JSON and guards the
// server's size limits (errTooLarge, HTTP 413) — the one check
// platform.DecodeJSON, whichever of its two readers takes the document,
// knows nothing about. Every other error is DecodeJSON's, a 400.
func decodePlatform(doc string, maxNodes, maxEdges int) (*platform.Platform, error) {
	if doc == "" {
		return nil, fmt.Errorf("missing platform")
	}
	p, err := platform.DecodeJSON(doc)
	if err != nil {
		return nil, err
	}
	if p.NumNodes() > maxNodes {
		return nil, errTooLarge{fmt.Sprintf("platform has %d nodes, limit %d", p.NumNodes(), maxNodes)}
	}
	if p.NumEdges() > maxEdges {
		return nil, errTooLarge{fmt.Sprintf("platform has %d edges, limit %d", p.NumEdges(), maxEdges)}
	}
	return p, nil
}

// errTooLarge marks a request that exceeded a size limit, mapped to
// HTTP 413.
type errTooLarge struct{ msg string }

func (e errTooLarge) Error() string { return e.msg }

func cacheStatsJSON(cs batch.CacheStats) CacheStatsJSON {
	return CacheStatsJSON{
		Solves:   cs.Solves,
		Hits:     cs.Hits,
		HitRate:  cs.HitRate(),
		InFlight: cs.InFlight,
		Entries:  cs.Entries,
		Shards:   cs.Shards,
	}
}

func lpStatsJSON(cs batch.CacheStats) LPStatsJSON {
	return LPStatsJSON{
		PivotsTotal: cs.Pivots,
		ColdSolves:  cs.Solves,
		ColdPivots:  cs.Pivots,

		FloatFirst:     true,
		FloatSolves:    cs.FloatSolves,
		FloatPivots:    cs.FloatPivots,
		RepairPivots:   cs.RepairPivots,
		ExactFallbacks: cs.ExactFallbacks,
	}
}
