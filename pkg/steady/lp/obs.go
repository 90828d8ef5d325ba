package lp

import "repro/pkg/steady/obs"

// Metric names exported by the LP layer. All counters are cumulative
// across solves; the per-phase wall times land in the shared
// steady_stage_duration_seconds histogram via spans (stages lp_solve,
// lp_phase1, lp_phase2, lp_float_search, lp_certify).
const (
	metricPivots    = "steady_lp_pivots_total"
	metricPhase1    = "steady_lp_phase1_pivots_total"
	metricBland     = "steady_lp_bland_pivots_total"
	metricFloatPiv  = "steady_lp_float_pivots_total"
	metricRefactor  = "steady_lp_refactorizations_total"
	metricSolves    = "steady_lp_solves_total"
	metricFallbacks = "steady_lp_fallbacks_total"
	// metricFallbackWhy splits kind="exact" of metricFallbacks by reason.
	metricFallbackWhy = "steady_lp_exact_fallbacks_total"
	metricErrors      = "steady_lp_errors_total"
)

const helpFallbackWhy = "Cold solves whose float basis went to the exact walk, by reason: search_status, singular_install, not_optimal."

// obsOf extracts the registry from possibly-nil options.
func obsOf(o *Options) *obs.Registry {
	if o == nil {
		return nil
	}
	return o.Obs
}

// flushSolveMetrics records one finished solve into the registry. It
// runs once per SolveOpts call (not per pivot), so the handful of
// registry lookups is off the hot path.
func flushSolveMetrics(opts *Options, sol *Solution, err error) {
	r := opts.Obs
	if err != nil {
		r.Counter(metricErrors, "LP solves that returned an error.").Inc()
		return
	}
	info := sol.Info
	r.Counter(metricPivots, "Exact simplex pivots across all phases.").Add(int64(info.Pivots))
	r.Counter(metricPhase1, "Exact pivots spent in phase 1.").Add(int64(info.Phase1Pivots))
	r.Counter(metricBland, "Exact pivots taken under the Bland anti-cycling fallback.").Add(int64(info.BlandPivots))
	r.Counter(metricFloatPiv, "float64 pivots of the float-first search phase.").Add(int64(info.FloatPivots))
	r.Counter(metricRefactor, "Exact basis refactorizations (eta file rebuilds).").Add(int64(info.Refactorizations))

	// The path is where the answer came from, not how far the search
	// walked: a float search that took no pivot still certified its
	// basis.
	path := "float"
	if info.CertifiedCold {
		path = "cold"
	}
	r.CounterVec(metricSolves, "LP solves by search path.", "path").With(path).Inc()

	if info.CertifiedCold {
		r.CounterVec(metricFallbacks, "LP fallbacks by kind.", "kind").With("exact").Inc()
	}
}
