package sim

import (
	"context"
	"fmt"
	"time"

	"repro/pkg/steady"
	"repro/pkg/steady/control"
	"repro/pkg/steady/control/forecast"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
	"repro/pkg/steady/sim/event"
)

// quotaPolicy serves, among the children requesting work, the one
// furthest behind its steady-state rate. rate[e] is the target task
// rate (tasks per time unit) of platform edge e; an adaptive run
// rewrites it whenever its control loop publishes an epoch.
type quotaPolicy struct {
	rate []float64
	tree []int
}

// Pick implements event.Policy: maximum deficit = rate*now - sent.
func (q *quotaPolicy) Pick(from int, pending []int, st *event.OnlineState) int {
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

// Name implements event.Policy.
func (q *quotaPolicy) Name() string { return "lp-quota" }

// setRates installs the rates of the epoch in force: Busy_e / c_e,
// with c_e taken from the model that epoch was solved on.
func (q *quotaPolicy) setRates(snap *control.Snapshot) error {
	for e, l := range snap.Epoch.Links {
		busy, err := rat.Parse(l.Busy)
		if err != nil {
			return err
		}
		c, err := rat.Parse(snap.Links[e].Current)
		if err != nil {
			return err
		}
		q.rate[e] = busy.Div(c).Float64()
	}
	return nil
}

// adaptiveDeployment is the one deployment of an adaptive run's
// Manager.
const adaptiveDeployment = "run"

// virtual maps simulated time onto the Manager's clock: one simulated
// time unit is one second from a fixed origin.
func virtual(now float64) time.Time {
	return time.Unix(0, 0).Add(time.Duration(now * float64(time.Second)))
}

// adaptiveLoop is the §5.5 loop of one adaptive run: an in-process
// control.Manager tracking the run's platform, fed each epoch's
// observations and ticked on the simulated clock, so the simulator
// re-plans by the production rule (a drift beyond 10 %). The epoch in
// force sets the quota policy's rates.
type adaptiveLoop struct {
	ctx   context.Context
	m     *control.Manager
	p     *platform.Platform
	pol   *quotaPolicy
	l     *event.Loop
	batch []control.Observation

	// resolves and pivots count the drift epochs the Manager published
	// (the create epoch is not a re-solve) and their exact pivots.
	resolves int
	pivots   int64
	// err is the first failure of the loop; the run reports it.
	err error
	// published, when set, sees the deployment after every epoch, with
	// the simulated time of its tick (the create epoch at 0).
	published func(now float64, snap *control.Snapshot)
}

// newAdaptiveLoop creates the run's Manager and its deployment, solved
// on the nominal platform. The caller closes the Manager.
func newAdaptiveLoop(ctx context.Context, p *platform.Platform, master int, tree []int, l *event.Loop,
	published func(float64, *control.Snapshot)) (*adaptiveLoop, error) {
	// An hour-long epoch keeps the Manager's background loop out of
	// the run: every tick comes from the simulator.
	m := control.NewManager(control.Config{Epoch: time.Hour, MinResolveInterval: time.Nanosecond})
	snap, err := m.Create(ctx, adaptiveDeployment, steady.Spec{Problem: "masterslave", Root: p.Name(master)}, p)
	if err != nil {
		m.Close()
		return nil, err
	}
	a := &adaptiveLoop{ctx: ctx, m: m, p: p, l: l, published: published,
		pol: &quotaPolicy{rate: make([]float64, p.NumEdges()), tree: tree}}
	if err := a.pol.setRates(snap); err != nil {
		m.Close()
		return nil, err
	}
	if published != nil {
		published(0, snap)
	}
	return a, nil
}

// onEpoch is the run's event.OnlineConfig.OnEpoch: one telemetry batch
// of the epoch's measured costs, then one Tick at the epoch's end.
// Forwarder-only nodes and values the shared guard refuses are left
// out of the batch, so a refused batch is a fault of the loop, not of
// the measurements.
func (a *adaptiveLoop) onEpoch(now float64, obs *event.EpochObservation) {
	if a.err != nil {
		return
	}
	a.batch = a.batch[:0]
	for i, v := range obs.EffectiveW {
		if !a.p.Weight(i).Inf && forecast.CheckMeasurement(v) == nil {
			a.batch = append(a.batch, control.Observation{Node: a.p.Name(i), Value: v})
		}
	}
	for e, v := range obs.EffectiveC {
		if forecast.CheckMeasurement(v) == nil {
			ed := a.p.Edge(e)
			a.batch = append(a.batch, control.Observation{From: a.p.Name(ed.From), To: a.p.Name(ed.To), Value: v})
		}
	}
	if len(a.batch) > 0 {
		if _, err := a.m.Observe(adaptiveDeployment, a.batch); err != nil {
			a.err = fmt.Errorf("sim: epoch at t=%v: %w", now, err)
			return
		}
	}
	if a.m.Tick(a.ctx, virtual(now)) == 0 {
		return
	}
	snap, err := a.m.Get(adaptiveDeployment)
	if err == nil {
		err = a.pol.setRates(snap)
	}
	if err != nil {
		a.err = fmt.Errorf("sim: epoch at t=%v: %w", now, err)
		return
	}
	ep := snap.Epoch
	a.resolves++
	a.pivots += int64(ep.Pivots)
	if a.l.Recording() {
		a.l.Emit(event.Record{Kind: "resolve", Note: "cold", Task: int64(ep.Pivots), Value: ep.Value})
	}
	if a.published != nil {
		a.published(now, snap)
	}
}
