package steady

import (
	"repro/pkg/steady/lp"
	"repro/pkg/steady/obs"
)

// SolveOption tunes one Solve call. Options are applied in order, so
// a later WarmStart overrides an earlier one; OnSolveDone hooks
// accumulate instead. The zero set of options is a plain cold solve.
type SolveOption func(*SolveConfig)

// WarmStart asks the solver to warm-start its LP from the given basis
// (normally Result.Basis() of a structurally identical platform
// solved with the same spec). A basis that does not fit the model is
// silently discarded and the solve runs cold; Result.WarmStarted
// reports which path ran. Together with FloatFirst the basis is first
// screened in float64, so a hint from an unrelated platform costs a
// few float passes rather than an exact factorization. A nil basis is
// a no-op, so callers can pass a cache lookup's result unconditionally.
func WarmStart(b *lp.Basis) SolveOption {
	return func(c *SolveConfig) {
		if b != nil {
			c.WarmBasis = b
		}
	}
}

// FloatFirst asks the solver to run its LP through the float-first
// fast path: the simplex *search* runs in float64 and only the final
// basis is reinstalled and certified (or repaired, or re-solved from
// scratch) over exact rationals — see lp.Options.FloatFirst. Every
// returned quantity is still an exact, certified rational; the option
// trades nothing but internal search arithmetic, and about halves a
// cold solve at 100 nodes.
// Result.FloatPivots, Result.RepairPivots and Result.CertifiedCold
// report how the certification went. A WarmStart basis that passes the
// float screen and is accepted takes precedence (warm re-solves are
// already a handful of exact pivots — a float search would only add
// overhead).
func FloatFirst() SolveOption {
	return func(c *SolveConfig) { c.FloatFirst = true }
}

// WithObs asks the solver to record per-solve metrics (pivot and
// refactorization counters, solve-path counts, lifecycle spans) into
// the given registry — see pkg/steady/obs. Observation is one-way:
// nothing read from the registry influences the solve, and results
// are identical with or without it. A nil registry is a no-op, so
// callers can pass their possibly-disabled registry unconditionally.
func WithObs(reg *obs.Registry) SolveOption {
	return func(c *SolveConfig) {
		if reg != nil {
			c.Obs = reg
		}
	}
}

// OnSolveDone registers a hook that the solver invokes exactly once
// per Solve call, when the underlying computation has truly finished:
// at return for a completed (or immediately rejected) solve, or when
// the abandoned background LP finally exits for a canceled one.
// Solve itself returns promptly on cancellation, but the exact
// simplex it started cannot be interrupted mid-pivot — the hook is
// how a caller that meters CPU (pkg/steady/server's concurrency gate)
// keeps its accounting tied to the real computation instead of to
// Solve's return. Multiple hooks all fire, in registration order.
func OnSolveDone(fn func()) SolveOption {
	return func(c *SolveConfig) {
		if fn != nil {
			c.done = append(c.done, fn)
		}
	}
}

// SolveConfig is the resolved per-call configuration a Solver sees
// after applying its options. Custom Solver implementations should
// build one with NewSolveConfig and call Done exactly once when their
// computation has truly finished; the built-in solvers do.
type SolveConfig struct {
	// WarmBasis is the warm-start hint, or nil for a cold solve.
	WarmBasis *lp.Basis
	// FloatFirst selects the float-search/exact-certificate LP path
	// (see the FloatFirst option).
	FloatFirst bool
	// Obs is the metrics registry to record the solve into, or nil
	// when observability is disabled (see the WithObs option).
	Obs *obs.Registry

	done []func()
}

// Done fires the completion hooks (see OnSolveDone). Calling it with
// no hooks registered is a no-op, so solvers can call it
// unconditionally.
func (c *SolveConfig) Done() {
	for _, fn := range c.done {
		fn()
	}
}

// NewSolveConfig resolves a Solve call's options, applied in order.
func NewSolveConfig(opts ...SolveOption) *SolveConfig {
	cfg := &SolveConfig{}
	for _, opt := range opts {
		opt(cfg)
	}
	return cfg
}

// lpOptions renders the config as options for the exact LP engine
// (nil when the solve is fully default, letting the engine take its
// own defaults without an allocation).
func (c *SolveConfig) lpOptions() *lp.Options {
	if c.WarmBasis == nil && !c.FloatFirst && c.Obs == nil {
		return nil
	}
	return &lp.Options{WarmBasis: c.WarmBasis, FloatFirst: c.FloatFirst, Obs: c.Obs}
}
