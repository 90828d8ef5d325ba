package steady

import "repro/pkg/steady/obs"

// SolveOption tunes one Solve call. Options are applied in order, so
// a later WithObs overrides an earlier one. No option changes what a
// solve returns: a result is a function of its spec and platform alone.
type SolveOption func(*SolveConfig)

// FloatFirst is a no-op: every solve searches in float64 and certifies
// in exact rationals.
//
// Deprecated: drop the option; the behaviour it asked for is the only
// one.
func FloatFirst() SolveOption {
	return func(*SolveConfig) {}
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

// SolveConfig is the resolved per-call configuration a Solver sees
// after applying its options; custom Solver implementations build one
// with NewSolveConfig.
type SolveConfig struct {
	// Obs is the metrics registry to record the solve into, or nil
	// when observability is disabled (see the WithObs option).
	Obs *obs.Registry
}

// NewSolveConfig resolves a Solve call's options, applied in order.
func NewSolveConfig(opts ...SolveOption) *SolveConfig {
	cfg := &SolveConfig{}
	for _, opt := range opts {
		opt(cfg)
	}
	return cfg
}
