// Package control is the online scheduling control plane: the
// production form of the paper's §5.5 phase-based dynamic scheduling
// ("during each phase, machine and network parameters are collected
// ... this information will then guide the scheduling decisions for
// the next phase"). It is the repository's one implementation of that
// loop: steadyd runs it for live deployments, and pkg/steady/sim's
// adaptive scenarios drive an in-process Manager from the simulated
// clock.
//
//   - a Manager tracks deployments — each a platform graph plus a
//     steady-state problem spec — and keeps a current certified
//     schedule (an Epoch) per deployment;
//   - telemetry observations (Observation), validated a whole batch
//     at a time, feed the deployment's estimator — the measurement
//     half of §5.5 (forecast per node and edge, drift against the
//     model in force, rational re-estimate);
//   - each epoch tick, the estimator's drift beyond
//     Config.DriftThreshold — rate-limited by
//     Config.MinResolveInterval and a per-tick re-solve budget so noisy
//     telemetry cannot melt the solver — triggers a re-solve;
//   - the re-solve takes the estimator's next model and solves it
//     through the LP cache exactly as /v1/solve solves that platform —
//     same call, same key, same bytes, nothing carried over from the
//     epoch before — and publishes a new versioned Epoch whose Delta
//     lists only the changed rates. §5.5 asks of a re-plan only the
//     optimum of the new estimate; a start from the previous epoch's
//     basis could save pivots when accepted, cost tens of cold solves
//     when refused, and made an epoch's vertex depend on the epochs
//     before it;
//   - subscribers follow a deployment over Subscription channels
//     (served as SSE by pkg/steady/server's /v1/deployments/{id}/watch)
//     with Last-Event-ID replay from a bounded history and eviction
//     of slow consumers, so one stuck reader never blocks the loop.
//
// Everything published is exact: epochs carry the same certified
// rational schedules /v1/solve returns, and an estimated platform
// that round-trips to a fingerprint seen before is a cache hit — a
// drift that reverts costs no pivots at all.
package control

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"sort"
	"sync"
	"time"

	"repro/pkg/steady"
	"repro/pkg/steady/batch"
	"repro/pkg/steady/control/forecast"
	"repro/pkg/steady/obs"
	"repro/pkg/steady/platform"
)

// Typed errors, matched with errors.Is by callers (pkg/steady/server
// maps them to HTTP statuses: unknown deployment → 404, the two
// capacity errors → 429, bad ids/observations → 400).
var (
	ErrUnknownDeployment  = errors.New("control: unknown deployment")
	ErrTooManyDeployments = errors.New("control: too many deployments")
	ErrTooManyWatchers    = errors.New("control: too many watchers")
	ErrBadDeployment      = errors.New("control: bad deployment")
	ErrBadObservation     = errors.New("control: bad observation")
)

// idPattern bounds deployment ids: they appear in URL paths and
// metrics, so only a conservative charset is accepted.
var idPattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// SolveFunc runs one certified solve for the control plane. key is
// the canonical cache key (batch.KeyFor the estimated platform and the
// solver); extra options are appended after any the implementation
// adds itself (options apply in order). The boolean reports a cache
// hit.
// pkg/steady/server supplies a SolveFunc backed by its shared LP
// cache and concurrency gate; NewManager defaults to a private
// batch.Cache.
type SolveFunc func(ctx context.Context, key string, solver steady.Solver, p *platform.Platform, extra ...steady.SolveOption) (*steady.Result, bool, error)

const (
	// resolveBudget caps re-solves per tick across all deployments —
	// the cost ceiling of one epoch.
	resolveBudget = 32
	// watchBuffer is a subscriber's channel depth; a subscriber that
	// falls this many epochs behind is evicted (its channel closes).
	watchBuffer = 16
	// historyLen is how many epochs are retained per deployment for
	// Last-Event-ID replay; older resume points get a Resync epoch.
	historyLen = 64
)

// Config tunes a Manager. The zero value selects sensible defaults
// for every field.
type Config struct {
	// Epoch is the control loop period: how often drift is evaluated.
	// 0 = 2s.
	Epoch time.Duration
	// MinResolveInterval is the minimum time between drift re-solves
	// of one deployment, whatever the telemetry does, measured on the
	// clock Tick is given. Create and replace take no reading of any
	// clock, so the first drift re-solve is never held back and a
	// caller driving Tick from a virtual clock is never compared
	// against wall time. 0 = one Epoch.
	MinResolveInterval time.Duration
	// DriftThreshold is the relative change between a forecast and
	// the value the current schedule was solved on that triggers a
	// re-solve (0.1 = 10%). 0 = 0.1.
	DriftThreshold float64
	// MaxDeployments caps tracked deployments. 0 = 1024.
	MaxDeployments int
	// MaxWatchers caps concurrent subscribers per deployment. 0 = 64.
	MaxWatchers int
	// SolveTimeout bounds one control-plane solve. 0 = 30s.
	SolveTimeout time.Duration
	// Solve runs the solves. nil = a private batch.Cache.
	Solve SolveFunc
	// Obs receives the steady_control_* metric families; nil records
	// nothing.
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Epoch <= 0 {
		c.Epoch = 2 * time.Second
	}
	if c.MinResolveInterval <= 0 {
		c.MinResolveInterval = c.Epoch
	}
	if c.DriftThreshold <= 0 {
		c.DriftThreshold = 0.1
	}
	if c.MaxDeployments <= 0 {
		c.MaxDeployments = 1024
	}
	if c.MaxWatchers <= 0 {
		c.MaxWatchers = 64
	}
	if c.SolveTimeout <= 0 {
		c.SolveTimeout = 30 * time.Second
	}
	return c
}

// Manager is the deployment registry and epoch loop. Construct with
// NewManager; it is safe for concurrent use. The background loop
// starts on the first Create and stops at Close.
//
// Locking. m.mu guards the registry (deps); each deployment's d.mu
// guards everything in it. Where both are held the order is m.mu, then
// d.mu (Create, Close, Watchers); nothing takes m.mu while holding a
// d.mu. No lock is held across a solve: Create solves before it touches
// the registry, and Tick reads the epoch in force with its inputs under
// d.mu, solves unlocked, and publishes only if d.epoch is still that
// epoch — a replace or another tick that published in between makes
// the result stale, and it is dropped. Every entry of deps has a
// published epoch.
type Manager struct {
	cfg     Config
	solve   SolveFunc
	metrics *controlMetrics

	mu   sync.RWMutex
	deps map[string]*deployment

	startOnce sync.Once
	closeOnce sync.Once
	loopCtx   context.Context
	loopStop  context.CancelFunc
	loopDone  chan struct{}
}

// deployment is the per-deployment state, all of it guarded by mu.
type deployment struct {
	id string

	mu      sync.Mutex
	spec    steady.Spec
	solver  steady.Solver
	est     *estimator // series over the nominal platform; its model is what the current epoch was solved on
	targets []target   // Observe's scratch, one slot per node and edge of est's platform (newTargets)
	epoch   *Epoch
	history []*Epoch // ascending versions, at most historyLen
	watched map[*Subscription]struct{}
	removed bool // set by Remove: Watch refuses, Tick publishes nothing

	lastResolve  time.Time // Tick's clock at the last drift re-solve; zero before the first
	resolves     int64
	driftEvents  int64
	observations int64
}

// NewManager builds a Manager from cfg (zero value = defaults).
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{cfg: cfg, deps: map[string]*deployment{}, loopDone: make(chan struct{})}
	m.loopCtx, m.loopStop = context.WithCancel(context.Background())
	m.solve = cfg.Solve
	if m.solve == nil {
		cache := batch.NewCache(0, 0)
		if cfg.Obs != nil {
			cache.SetObs(cfg.Obs)
		}
		m.solve = func(ctx context.Context, key string, solver steady.Solver, p *platform.Platform, extra ...steady.SolveOption) (*steady.Result, bool, error) {
			res, err, hit := cache.DoSolve(ctx, key, solver.Name(), func(sctx context.Context, opts ...steady.SolveOption) (*steady.Result, error) {
				return solver.Solve(sctx, p, append(opts, extra...)...)
			})
			return res, hit, err
		}
	}
	m.metrics = newControlMetrics(cfg.Obs, m)
	return m
}

// Len returns the number of tracked deployments.
func (m *Manager) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.deps)
}

// List returns the tracked deployment ids, sorted.
func (m *Manager) List() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.deps))
	for id := range m.deps {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// start launches the background epoch loop (one tick per Config.Epoch)
// on the first Create.
func (m *Manager) start() {
	m.startOnce.Do(func() {
		go func() {
			defer close(m.loopDone)
			t := time.NewTicker(m.cfg.Epoch)
			defer t.Stop()
			for {
				select {
				case <-m.loopCtx.Done():
					return
				case now := <-t.C:
					m.Tick(m.loopCtx, now)
				}
			}
		}()
	})
}

// Close stops the epoch loop and evicts every subscriber (their
// channels close). Tracked deployments remain readable; Close is
// idempotent.
func (m *Manager) Close() {
	m.closeOnce.Do(func() {
		m.loopStop()
		// Only wait for a loop that was actually started.
		started := true
		m.startOnce.Do(func() { started = false; close(m.loopDone) })
		if started {
			<-m.loopDone
		}
		m.mu.RLock()
		defer m.mu.RUnlock()
		for _, d := range m.deps {
			d.mu.Lock()
			for sub := range d.watched {
				delete(d.watched, sub)
				close(sub.ch)
			}
			d.mu.Unlock()
		}
	})
}

// Create registers (or replaces) a deployment: it solves the problem
// on the nominal platform synchronously and publishes epoch 1 (on
// replace: the next version, to the existing subscribers). A replace
// resets every telemetry series — the old forecasts describe the old
// platform. A failed solve registers nothing and leaves a replaced
// deployment running as it was.
func (m *Manager) Create(ctx context.Context, id string, spec steady.Spec, p *platform.Platform) (*Snapshot, error) {
	if !idPattern.MatchString(id) {
		return nil, fmt.Errorf("%w: id %q (want %s)", ErrBadDeployment, id, idPattern)
	}
	solver, err := steady.New(spec)
	if err != nil {
		return nil, err
	}
	if p == nil || p.NumNodes() == 0 {
		return nil, fmt.Errorf("%w: empty platform", ErrBadDeployment)
	}
	// Refuse a new id at capacity before paying for its solve.
	m.mu.RLock()
	err = m.admitLocked(id)
	m.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	m.start()

	res, hit, err := m.solveModel(ctx, solver, p)
	if err != nil {
		return nil, err
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	// Again: other Creates may have filled the registry meanwhile.
	if err := m.admitLocked(id); err != nil {
		return nil, err
	}
	reason := "replace"
	d, ok := m.deps[id]
	if !ok {
		// A new id — or a replace whose deployment was removed during
		// the solve, which starts over as a fresh one.
		reason = "create"
		d = &deployment{id: id, watched: map[*Subscription]struct{}{}}
		m.deps[id] = d
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.spec = spec
	d.solver = solver
	// Fresh series: the old forecasts describe the old platform.
	d.est = newEstimator(p)
	d.targets = newTargets(p.NumNodes() + p.NumEdges())
	d.observations = 0
	// No clock reading: MinResolveInterval spaces drift re-solves only.
	d.publishLocked(m, res, hit, reason, 0, time.Time{})
	return d.snapshotLocked(), nil
}

// admitLocked refuses a new id once MaxDeployments are tracked; a
// replace always fits. Called under m.mu.
func (m *Manager) admitLocked(id string) error {
	if _, ok := m.deps[id]; ok || len(m.deps) < m.cfg.MaxDeployments {
		return nil
	}
	return fmt.Errorf("%w: limit %d", ErrTooManyDeployments, m.cfg.MaxDeployments)
}

// solveModel runs one control-plane solve of a platform model under
// SolveTimeout, keyed like every other consumer of the LP cache.
func (m *Manager) solveModel(ctx context.Context, solver steady.Solver, p *platform.Platform) (*steady.Result, bool, error) {
	ctx, cancel := context.WithTimeout(ctx, m.cfg.SolveTimeout)
	defer cancel()
	res, hit, err := m.solve(ctx, batch.KeyFor(p, solver), solver, p)
	if err != nil {
		m.metrics.resolveErrs.Inc()
	}
	return res, hit, err
}

// resolve is one deployment's drift re-solve. The epoch loop's goroutine
// has nothing above it to catch a panic, so one in the solve (a custom
// SolveFunc, an LP on one odd re-estimated platform) becomes that
// deployment's failed re-solve — counted like any other, its previous
// epoch still current — instead of the end of the process and of every
// other deployment's loop.
func (m *Manager) resolve(ctx context.Context, solver steady.Solver, est *platform.Platform) (res *steady.Result, hit bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			m.metrics.resolveErrs.Inc()
			err = fmt.Errorf("control: re-solve panicked: %v", r)
		}
	}()
	return m.solveModel(ctx, solver, est)
}

// Remove drops a deployment and evicts its subscribers. It marks the
// deployment removed under the same lock, so a Watch that looked it
// up just before the removal cannot subscribe after the sweep.
func (m *Manager) Remove(id string) error {
	m.mu.Lock()
	d, ok := m.deps[id]
	delete(m.deps, id)
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownDeployment, id)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.removed = true
	for sub := range d.watched {
		delete(d.watched, sub)
		close(sub.ch)
	}
	return nil
}

func (m *Manager) lookup(id string) (*deployment, error) {
	m.mu.RLock()
	d, ok := m.deps[id]
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDeployment, id)
	}
	return d, nil
}

// Get returns the deployment's current snapshot.
func (m *Manager) Get(id string) (*Snapshot, error) {
	d, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.snapshotLocked(), nil
}

// target is what one validated observation resolved to in the base
// platform: a node index, or an edge index when edge >= 0.
type target struct{ node, edge int }

// newTargets returns Observe's scratch for batches of up to n
// observations. Slot i keeps what the observation at position i of the
// last batch resolved to, or (-1, -1): a client posts its series in the
// same order batch after batch, so that is Observe's first guess for
// position i of the next one.
func newTargets(n int) []target {
	t := make([]target, n)
	for i := range t {
		t[i] = target{node: -1, edge: -1}
	}
	return t
}

// Observe ingests one telemetry batch. The whole batch is validated
// first — every observation must name an existing node (with finite
// compute capacity) or edge and carry a finite, strictly positive
// value — and a batch with any invalid observation is rejected whole:
// no forecaster sees a partial batch. The returned error joins every
// problem found and matches both ErrBadObservation and
// forecast.ErrBadMeasurement with errors.Is. Observe does not retain
// batch or the strings in it: a caller may reuse both once it returns.
func (m *Manager) Observe(id string, batch []Observation) (int, error) {
	d, err := m.lookup(id)
	if err != nil {
		return 0, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(batch) == 0 {
		return 0, fmt.Errorf("%w: empty batch", ErrBadObservation)
	}
	base := d.est.base
	// A batch that reports every node and edge once fits the
	// deployment's scratch; only a longer one pays for its own.
	targets := d.targets
	if len(batch) > len(targets) {
		targets = newTargets(len(batch))
	}
	targets = targets[:len(batch)]
	var errs []error
	for i, o := range batch {
		// A guess whose names are the observation's is what resolving
		// them gives, because every guess is a resolution's answer: a
		// repeated name's first node, and the first edge between two
		// names' nodes.
		guess := targets[i]
		bad := func(format string, args ...any) {
			errs = append(errs, fmt.Errorf("observation %d: %w: %s", i, ErrBadObservation, fmt.Sprintf(format, args...)))
		}
		switch {
		case o.Node != "" && (o.From != "" || o.To != ""):
			bad("names both a node (%q) and an edge", o.Node)
		case o.Node != "":
			n := guess.node
			if n < 0 || base.Name(n) != o.Node {
				n = d.est.node(o.Node)
			}
			switch {
			case n < 0:
				bad("unknown node %q", o.Node)
			case base.Weight(n).Inf:
				bad("node %q is forwarder-only (w = inf) and has no compute cost", o.Node)
			default:
				targets[i] = target{node: n, edge: -1}
			}
		case o.From != "" && o.To != "":
			if e := guess.edge; e >= 0 && d.est.joins(e, o.From, o.To) {
				targets[i] = guess
				break
			}
			from, to := d.est.node(o.From), d.est.node(o.To)
			if from < 0 || to < 0 {
				bad("unknown edge %s>%s", o.From, o.To)
				continue
			}
			e := base.FindEdge(from, to)
			if e < 0 {
				bad("no edge %s>%s in the platform", o.From, o.To)
				continue
			}
			targets[i] = target{node: -1, edge: e}
		default:
			bad("names neither a node nor an edge (set node, or from and to)")
		}
		if err := forecast.CheckMeasurement(o.Value); err != nil {
			errs = append(errs, fmt.Errorf("observation %d: %w", i, err))
		}
	}
	if len(errs) > 0 {
		m.metrics.rejected.Add(int64(len(batch)))
		return 0, errors.Join(errs...)
	}
	for i, t := range targets {
		if t.edge >= 0 {
			d.est.observeEdge(t.edge, batch[i].Value)
		} else {
			d.est.observeNode(t.node, batch[i].Value)
		}
	}
	d.observations += int64(len(batch))
	m.metrics.observations.Add(int64(len(batch)))
	return len(batch), nil
}

// Tick runs one epoch of the control loop at the given instant: every
// deployment's drift is evaluated, and those beyond the threshold —
// subject to MinResolveInterval and the per-tick re-solve budget — are
// re-solved on their re-estimated rational platform, and their new
// epoch published. A result
// that a replace (or another Tick) overtook during its solve is
// dropped. It returns the number of epochs published. The background
// loop calls Tick once per Config.Epoch; pkg/steady/sim and tests
// drive it directly with a synthetic clock.
func (m *Manager) Tick(ctx context.Context, now time.Time) int {
	m.metrics.ticks.Inc()
	m.mu.RLock()
	deps := make([]*deployment, 0, len(m.deps))
	for _, d := range m.deps {
		deps = append(deps, d)
	}
	m.mu.RUnlock()
	// Deterministic order: budget exhaustion hits the
	// lexicographically last deployments, not random ones.
	sort.Slice(deps, func(i, j int) bool { return deps[i].id < deps[j].id })

	budget := resolveBudget
	published := 0
	for _, d := range deps {
		if ctx.Err() != nil {
			break
		}
		d.mu.Lock()
		drift := d.est.drift()
		if drift <= m.cfg.DriftThreshold {
			d.mu.Unlock()
			continue
		}
		d.driftEvents++
		m.metrics.driftEvents.Inc()
		if now.Sub(d.lastResolve) < m.cfg.MinResolveInterval {
			m.metrics.supMinIvl.Inc()
			d.mu.Unlock()
			continue
		}
		if budget <= 0 {
			m.metrics.supBudget.Inc()
			d.mu.Unlock()
			continue
		}
		budget--
		// The estimate and solver belong to the epoch in force; the
		// solve runs with no lock held.
		from, est, solver := d.epoch, d.est.estimate(), d.solver
		d.mu.Unlock()

		res, hit, err := m.resolve(ctx, solver, est)
		if err != nil {
			continue
		}
		d.mu.Lock()
		// A replace or another tick published meanwhile: this result
		// describes an epoch no longer in force (perhaps a retired
		// platform), so it is dropped.
		if d.epoch == from && !d.removed {
			d.est.setModel(est)
			d.publishLocked(m, res, hit, "drift", drift, now)
			published++
		}
		d.mu.Unlock()
	}
	return published
}

// publishLocked installs a solved result as the deployment's next
// epoch: it computes the delta against the previous version, appends
// to the replay history, and fans the epoch out to every subscriber
// (evicting the ones whose buffers are full). Called under d.mu.
func (d *deployment) publishLocked(m *Manager, res *steady.Result, hit bool, reason string, drift float64, now time.Time) {
	var version uint64 = 1
	if d.epoch != nil {
		version = d.epoch.Version + 1
	}
	ep := &Epoch{
		Deployment:  d.id,
		Version:     version,
		Solver:      res.Solver,
		Fingerprint: res.Fingerprint,
		Throughput:  res.Throughput.String(),
		Value:       res.ThroughputFloat(),
		Pivots:      res.Pivots,
		CacheHit:    hit,
		Reason:      reason,
		MaxDrift:    drift,
	}
	ep.Nodes, ep.Links = res.Rates()
	if prev := d.epoch; prev != nil {
		ep.Delta = computeDelta(prev, ep)
		if ep.Delta != nil {
			m.metrics.deltaChanges.Add(int64(len(ep.Delta.Nodes) + len(ep.Delta.Links)))
		} else {
			// The topology changed (a replace with an incompatible
			// platform): no delta is possible, so mark the epoch Resync
			// — delta-tracking subscribers must discard incremental
			// state and take this schedule whole.
			ep.Resync = true
		}
	}

	d.epoch = ep
	d.history = append(d.history, ep)
	if over := len(d.history) - historyLen; over > 0 {
		d.history = append(d.history[:0], d.history[over:]...)
	}
	d.lastResolve = now
	d.resolves++
	m.metrics.epochs.Inc()
	m.metrics.resolveByWhy.With(reason).Inc()
	m.metrics.pivots.Add(int64(res.Pivots))

	for sub := range d.watched {
		select {
		case sub.ch <- ep:
		default:
			// The subscriber's buffer is full: it is watchBuffer
			// epochs behind a loop that must not block. Evict it;
			// the closed channel tells its reader to resubscribe
			// (Last-Event-ID resume replays what it missed).
			delete(d.watched, sub)
			close(sub.ch)
			m.metrics.evictions.Inc()
		}
	}
}

// computeDelta lists the node and link rates that changed between two
// epochs of the same deployment. It returns nil when the topologies
// differ (a replace with a new platform): there is no meaningful
// diff, subscribers must take the epoch whole.
func computeDelta(prev, next *Epoch) *Delta {
	if len(prev.Nodes) != len(next.Nodes) || len(prev.Links) != len(next.Links) {
		return nil
	}
	delta := &Delta{FromVersion: prev.Version, ThroughputChanged: prev.Throughput != next.Throughput}
	for i, n := range next.Nodes {
		if prev.Nodes[i].Name != n.Name {
			return nil
		}
		if prev.Nodes[i] != n {
			delta.Nodes = append(delta.Nodes, n)
		}
	}
	for i, l := range next.Links {
		if prev.Links[i].From != l.From || prev.Links[i].To != l.To {
			return nil
		}
		if prev.Links[i] != l {
			delta.Links = append(delta.Links, l)
		}
	}
	return delta
}

// snapshotLocked renders the deployment's observable state under d.mu.
func (d *deployment) snapshotLocked() *Snapshot {
	s := &Snapshot{
		ID:           d.id,
		Problem:      d.spec.Problem,
		Solver:       d.solver.Name(),
		Model:        d.spec.Model.String(),
		Epoch:        d.epoch,
		Watchers:     len(d.watched),
		Resolves:     d.resolves,
		DriftEvents:  d.driftEvents,
		Observations: d.observations,
	}
	base, cur := d.est.base, d.est.model
	for i := 0; i < base.NumNodes(); i++ {
		mn := ModelNode{
			Name:    base.Name(i),
			Nominal: base.Weight(i).String(),
			Current: cur.Weight(i).String(),
		}
		mn.Forecast, mn.Predictor, mn.Observations = d.est.nodes[i].state()
		s.Nodes = append(s.Nodes, mn)
	}
	for e, ed := range base.Edges() {
		ml := ModelLink{
			From:    base.Name(ed.From),
			To:      base.Name(ed.To),
			Nominal: ed.C.String(),
			Current: cur.Edge(e).C.String(),
		}
		ml.Forecast, ml.Predictor, ml.Observations = d.est.edges[e].state()
		s.Links = append(s.Links, ml)
	}
	return s
}
