// Package adaptive implements the §5.5 dynamic version of
// steady-state scheduling: "divide the scheduling into phases; during
// each phase, machine and network parameters are collected ... this
// information will then guide the scheduling decisions for the next
// phase". It re-solves the steady-state LP each epoch from NWS-style
// forecasts (pkg/steady/control/forecast) and turns the activity
// variables into a work-allocation policy for the online simulator.
package adaptive

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/pkg/steady/lp"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
	sim "repro/pkg/steady/sim/event"
)

// QuotaPolicy serves, among the children requesting work, the one
// furthest behind its steady-state rate. Rates come from an LP
// solution; SetRates swaps them at epoch boundaries.
type QuotaPolicy struct {
	// rate[e] is the target task rate (tasks per time unit) of
	// platform edge e.
	rate []float64
	tree []int
}

// NewQuotaPolicy builds a policy over the given overlay tree with the
// given per-edge target rates, which it keeps.
func NewQuotaPolicy(tree []int, rate []float64) *QuotaPolicy {
	return &QuotaPolicy{rate: rate, tree: tree}
}

// SetRates installs the per-edge target rates of a new LP solution.
func (q *QuotaPolicy) SetRates(ms *core.MasterSlave) {
	for e := range q.rate {
		q.rate[e] = ms.TasksPerUnit(e).Float64()
	}
}

// Pick implements sim.Policy: maximum deficit = rate*now - sent.
func (q *QuotaPolicy) Pick(from int, pending []int, st *sim.OnlineState) int {
	best, bestDef := 0, -1e300
	for i, child := range pending {
		e := q.tree[child]
		def := q.rate[e]*st.Now - float64(st.SentTo[e])
		if def > bestDef {
			best, bestDef = i, def
		}
	}
	return best
}

// Name implements sim.Policy.
func (q *QuotaPolicy) Name() string { return "lp-quota" }

// Controller re-estimates the platform each epoch and re-solves the
// steady-state LP, feeding the new rates to its QuotaPolicy.
type Controller struct {
	est    *Estimator
	master int
	policy *QuotaPolicy

	// basis is the optimal basis of the previous epoch's LP. The
	// estimated platform keeps its topology across epochs (only node
	// weights and edge costs move), so each re-solve warm-starts from
	// it and typically finishes in a handful of pivots.
	basis *lp.Basis

	// Resolves counts LP re-solves; WarmResolves counts the subset
	// that were warm-started from the previous epoch's basis;
	// Pivots accumulates simplex pivots across those re-solves (the
	// initial cold solve of NewController is excluded from all
	// three, so Pivots/Resolves is the per-re-solve cost).
	// LastThroughput is the latest LP optimum (on the estimated
	// platform).
	Resolves       int
	WarmResolves   int
	Pivots         int64
	LastThroughput rat.Rat
}

// NewController builds a controller for the nominal platform. The
// initial rates come from the LP on the nominal values.
func NewController(p *platform.Platform, master int, tree []int) (*Controller, *QuotaPolicy, error) {
	ms, err := core.SolveMasterSlave(p, master)
	if err != nil {
		return nil, nil, fmt.Errorf("adaptive: initial LP: %w", err)
	}
	pol := NewQuotaPolicy(tree, make([]float64, p.NumEdges()))
	pol.SetRates(ms)
	return &Controller{
		est:            NewEstimator(p),
		master:         master,
		policy:         pol,
		basis:          ms.Basis,
		LastThroughput: ms.Throughput,
	}, pol, nil
}

// Ingest records one epoch's observations (a zero is "nothing observed
// this epoch"), returning an error naming every measurement the
// Estimator's guard rejected. Rejection is per measurement, not per
// epoch — the simulator has no transactional caller to retry, unlike
// the control plane's telemetry endpoint — so a corrupted probe
// degrades one series instead of crashing the controller.
func (c *Controller) Ingest(obs *sim.EpochObservation) error {
	var errs []error
	for i, v := range obs.EffectiveW {
		if v != 0 {
			errs = append(errs, c.est.ObserveNode(i, v))
		}
	}
	for e, v := range obs.EffectiveC {
		if v != 0 {
			errs = append(errs, c.est.ObserveEdge(e, v))
		}
	}
	return errors.Join(errs...)
}

// OnEpoch is wired into sim.OnlineConfig: it records the epoch's
// observations and re-solves the LP on the forecast platform. Invalid
// measurements are dropped by Ingest (the callback signature has
// nowhere to report them; callers that want the error use Ingest
// directly).
func (c *Controller) OnEpoch(now float64, obs *sim.EpochObservation) {
	_ = c.Ingest(obs)
	ms, err := core.SolveMasterSlavePortOpts(c.EstimatedPlatform(), c.master, core.SendAndReceive,
		&lp.Options{WarmBasis: c.basis})
	if err != nil {
		// Keep the previous rates; a transient bad estimate must not
		// crash the run.
		return
	}
	c.Resolves++
	if ms.LP.WarmStarted {
		c.WarmResolves++
	}
	c.Pivots += int64(ms.LP.Pivots)
	c.basis = ms.Basis
	c.LastThroughput = ms.Throughput
	c.policy.SetRates(ms)
}

// EstimatedPlatform returns the forecast platform: the nominal one with
// every cost that has a usable forecast replaced by it.
func (c *Controller) EstimatedPlatform() *platform.Platform { return c.est.Estimate() }
