package control

import "repro/pkg/steady/obs"

// controlMetrics is the steady_control_* instrument set. Instruments
// are resolved eagerly at construction — including every label value
// the package can emit — so all families render (at zero) from the
// first scrape and `metricscheck -require` can pin them in CI. A nil
// registry yields nil instruments, which are no-ops.
type controlMetrics struct {
	ticks        *obs.Counter
	epochs       *obs.Counter
	resolveByWhy *obs.CounterVec // by Epoch.Reason
	resolveErrs  *obs.Counter
	pivots       *obs.Counter
	driftEvents  *obs.Counter
	supMinIvl    *obs.Counter
	supBudget    *obs.Counter
	observations *obs.Counter
	rejected     *obs.Counter
	evictions    *obs.Counter
	resyncs      *obs.Counter
	deltaChanges *obs.Counter
}

func newControlMetrics(reg *obs.Registry, m *Manager) *controlMetrics {
	cm := &controlMetrics{}
	reg.GaugeFunc("steady_control_deployments",
		"Deployments currently tracked by the control plane.",
		func() float64 { return float64(m.Len()) })
	reg.GaugeFunc("steady_control_watchers",
		"Live /v1/deployments/{id}/watch subscriptions across all deployments.",
		func() float64 { return float64(m.Watchers()) })
	cm.ticks = reg.Counter("steady_control_ticks_total",
		"Control-loop epochs evaluated (every deployment's drift checked once per tick).")
	cm.epochs = reg.Counter("steady_control_epochs_total",
		"Schedule epochs published (creates, replaces and drift re-solves).")
	cm.resolveByWhy = reg.CounterVec("steady_control_resolves_total",
		"Certified solves behind published epochs, by reason.", "reason")
	for _, reason := range []string{"create", "drift", "replace"} {
		cm.resolveByWhy.With(reason)
	}
	cm.resolveErrs = reg.Counter("steady_control_resolve_errors_total",
		"Control-plane solves that failed (the previous epoch stays current).")
	cm.pivots = reg.Counter("steady_control_resolve_pivots_total",
		"Exact simplex pivots across control-plane solves (the re-planning cost).")
	cm.driftEvents = reg.Counter("steady_control_drift_events_total",
		"Ticks on which a deployment's forecast drift exceeded the threshold.")
	suppressed := reg.CounterVec("steady_control_drift_suppressed_total",
		"Drift events that did not re-solve, by reason (min_interval, budget).", "reason")
	cm.supMinIvl = suppressed.With("min_interval")
	cm.supBudget = suppressed.With("budget")
	cm.observations = reg.Counter("steady_control_observations_total",
		"Telemetry measurements accepted into forecasters.")
	cm.rejected = reg.Counter("steady_control_observations_rejected_total",
		"Telemetry measurements rejected by validation (whole batches count).")
	cm.evictions = reg.Counter("steady_control_watch_evictions_total",
		"Watch subscribers evicted for falling a full buffer behind.")
	cm.resyncs = reg.Counter("steady_control_watch_resyncs_total",
		"Watch resumes whose Last-Event-ID predated the retained history (full resync).")
	cm.deltaChanges = reg.Counter("steady_control_delta_changes_total",
		"Changed node and link rates published across epoch deltas.")
	return cm
}
