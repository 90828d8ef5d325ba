package main

// metricDef names one metric of BENCHMARK.json. A test keeps the two
// lists below and that file in step.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: allowed worsening of the median
}

// overReps reduces a metric's per-repetition values to the run's
// value: their median — except for p90_us, their lower quartile. A
// hiccup of the box inside a repetition (tens of milliseconds, a tenth
// of its requests) leaves the repetition's median alone and sets its
// 90th percentile; scaling corrects the box's speed, not its hiccups.
// The quarter of the repetitions with the lowest p90 is the tail the
// code has when the box lets it be seen, and it moves with the code
// like any other: over two sets of ten runs the median of the p90s
// spread by up to 0.10, their lower quartile by at most 0.08.
func (d metricDef) overReps(s summary) float64 {
	if d.name == "p90_us" {
		return s.Q1
	}
	return s.Median
}

// endToEnd are the metrics a caller of steadyd sees. Each is reduced
// from its per-repetition values (overReps), scaled to nominal box
// speed (reference.go), except setup_s (median of the run's set-ups,
// scaled too) and rss_mb (one reading at the end, as read). A bound is three
// times the widest quartile spread ten runs of one commit showed on
// this box, rounded up, and at most the contract's 0.25.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"p50_us", "us", "lower", 0.15},
	{"p90_us", "us", "lower", 0.25},
	{"ops_s", "1/s", "higher", 0.20},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"rss_mb", "MiB", "lower", 0.15},
}

// perLayer are the traced run's metrics, layer = module name; net and
// client are what is left outside the daemon. A metric that does not
// apply to a workload is reported as 0.
var perLayer = []metricDef{
	{name: "platform.decode_us", unit: "us", better: "lower"},
	{name: "platform.decode_allocs", unit: "count", better: "lower"},
	{name: "steady.fingerprint_us", unit: "us", better: "lower"},
	{name: "steady.fingerprint_allocs", unit: "count", better: "lower"},
	{name: "steady.build_us", unit: "us", better: "lower"},
	{name: "batch.hit_us", unit: "us", better: "lower"},
	{name: "batch.hit_ratio", unit: "ratio", better: "higher"},
	{name: "batch.hits_total", unit: "count", better: "higher"},
	{name: "batch.entries_end", unit: "count", better: "lower"},
	{name: "lp.solves_total", unit: "count", better: "lower"},
	{name: "lp.solve_us", unit: "us", better: "lower"},
	{name: "lp.float_search_us", unit: "us", better: "lower"},
	{name: "lp.certify_us", unit: "us", better: "lower"},
	{name: "lp.warm_us", unit: "us", better: "lower"},
	{name: "lp.replay_solve_us", unit: "us", better: "lower"},
	{name: "lp.float_pivots_per_solve", unit: "count", better: "lower"},
	{name: "lp.exact_pivots_per_solve", unit: "count", better: "lower"},
	{name: "lp.repair_pivots_per_solve", unit: "count", better: "lower"},
	{name: "lp.refactorizations_per_solve", unit: "count", better: "lower"},
	{name: "lp.fallback_ratio", unit: "ratio", better: "lower"},
	{name: "lp.warm_reject_ratio", unit: "ratio", better: "lower"},
	{name: "server.handle_us", unit: "us", better: "lower"},
	{name: "server.inproc_us", unit: "us", better: "lower"},
	{name: "server.allocs_per_op", unit: "count", better: "lower"},
	{name: "server.resp_bytes", unit: "bytes", better: "lower"},
	{name: "server.self_us", unit: "us", better: "lower"},
	{name: "obs.tax_us", unit: "us", better: "lower"},
	{name: "obs.scrape_us", unit: "us", better: "lower"},
	{name: "net.rtt_us", unit: "us", better: "lower"},
	{name: "cluster.forward_ratio", unit: "ratio", better: "higher"},
	{name: "cluster.forwards_total", unit: "count", better: "higher"},
	{name: "cluster.forward_errors", unit: "count", better: "lower"},
	{name: "cluster.basis_ships", unit: "count", better: "lower"},
	{name: "cluster.hop_us", unit: "us", better: "lower"},
	{name: "cluster.owner_handle_us", unit: "us", better: "lower"},
	{name: "cluster.owner_ns", unit: "ns", better: "lower"},
	{name: "control.observe_us", unit: "us", better: "lower"},
	{name: "control.replan_p50_us", unit: "us", better: "lower"},
	{name: "control.replan_p90_us", unit: "us", better: "lower"},
	{name: "control.tick_us", unit: "us", better: "lower"},
	{name: "control.epochs_per_regime", unit: "count", better: "lower"},
	{name: "control.warm_ratio", unit: "ratio", better: "higher"},
	{name: "control.cache_hit_ratio", unit: "ratio", better: "lower"},
	{name: "control.pivots_per_epoch", unit: "count", better: "lower"},
	{name: "control.suppressed", unit: "count", better: "lower"},
	{name: "client.p99_us", unit: "us", better: "lower"},
	{name: "client.p999_us", unit: "us", better: "lower"},
	{name: "client.max_us", unit: "us", better: "lower"},
	{name: "client.rep_spread", unit: "ratio", better: "lower"},
	{name: "client.samples", unit: "count", better: "higher"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
}

// addDelta accumulates, over the daemons of a workload, what changed
// between two scrapes of one daemon. route is the daemon's label of
// the workload's primary request.
func addDelta(acc map[string]float64, before, after *scrape, route string) {
	d := func(key string, name string, match ...string) {
		acc[key] += after.value(name, match...) - before.value(name, match...)
	}
	acc["hits"] += float64(after.stats.Cache.Hits - before.stats.Cache.Hits)
	acc["solves"] += float64(after.stats.Cache.Solves - before.stats.Cache.Solves)
	acc["entries"] += float64(after.stats.Cache.Entries)
	acc["scrape_us"] += micros(before.metricsD+after.metricsD) / 2

	d("http_sum", "steady_http_request_duration_seconds_sum", "endpoint="+route)
	d("http_count", "steady_http_request_duration_seconds_count", "endpoint="+route)
	for _, stage := range []string{"lp_solve", "lp_float_search", "lp_certify", "lp_warm"} {
		d(stage+"_sum", "steady_stage_duration_seconds_sum", "stage="+stage)
		d(stage+"_count", "steady_stage_duration_seconds_count", "stage="+stage)
	}
	d("lp_solves", "steady_lp_solves_total")
	d("float_pivots", "steady_lp_float_pivots_total")
	d("exact_pivots", "steady_lp_pivots_total")
	d("repair_pivots", "steady_lp_repair_pivots_total")
	d("refactorizations", "steady_lp_refactorizations_total")
	d("fallback_exact", "steady_lp_fallbacks_total", "kind=exact")
	d("fallback_warm_reject", "steady_lp_fallbacks_total", "kind=warm_reject")
	d("suppressed", "steady_control_drift_suppressed_total")

	acc["forwards"] += float64(after.cluster.Counters.Forwards - before.cluster.Counters.Forwards)
	acc["forward_errors"] += float64(after.cluster.Counters.ForwardErrors - before.cluster.Counters.ForwardErrors)
	acc["basis_ships"] += float64(after.cluster.Counters.BasisShips - before.cluster.Counters.BasisShips)
}

// layerFromDelta turns one scraped repetition's accumulated deltas
// into per-layer metrics. ops is the repetition's request count.
func layerFromDelta(d map[string]float64, ops, daemons int) map[string]float64 {
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	stageUs := func(stage string) float64 {
		return ratio(d[stage+"_sum"], d[stage+"_count"]) * 1e6
	}
	return map[string]float64{
		"batch.hit_ratio":   ratio(d["hits"], d["hits"]+d["solves"]),
		"batch.hits_total":  d["hits"],
		"batch.entries_end": d["entries"],
		"obs.scrape_us":     d["scrape_us"] / float64(daemons),

		"lp.solves_total":               d["lp_solves"],
		"lp.solve_us":                   stageUs("lp_solve"),
		"lp.float_search_us":            stageUs("lp_float_search"),
		"lp.certify_us":                 stageUs("lp_certify"),
		"lp.warm_us":                    stageUs("lp_warm"),
		"lp.float_pivots_per_solve":     ratio(d["float_pivots"], d["lp_solves"]),
		"lp.exact_pivots_per_solve":     ratio(d["exact_pivots"], d["lp_solves"]),
		"lp.repair_pivots_per_solve":    ratio(d["repair_pivots"], d["lp_solves"]),
		"lp.refactorizations_per_solve": ratio(d["refactorizations"], d["lp_solves"]),
		"lp.fallback_ratio":             ratio(d["fallback_exact"], d["lp_solves"]),
		"lp.warm_reject_ratio":          ratio(d["fallback_warm_reject"], d["lp_solves"]),

		"server.handle_us": ratio(d["http_sum"], d["http_count"]) * 1e6,

		"cluster.forward_ratio":  ratio(d["forwards"], float64(ops)),
		"cluster.forwards_total": d["forwards"],
		"cluster.forward_errors": d["forward_errors"],
		"cluster.basis_ships":    d["basis_ships"],

		"control.suppressed": d["suppressed"],
	}
}
