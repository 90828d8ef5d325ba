package lp

import "repro/pkg/steady/obs"

// Pricing selects the entering-variable rule of the exact simplex.
type Pricing int

const (
	// PricingBland always enters the smallest-index improving column.
	// It cannot cycle, and — because it is the rule the historical
	// dense engine used — it reproduces that engine's pivot sequence
	// and optimal vertex bit-for-bit on the same model, which is why
	// it is the default: every certified golden value in this
	// repository (activity variables included, not just objectives)
	// is pinned to it.
	PricingBland Pricing = iota
	// PricingDantzig enters the column with the most positive reduced
	// cost (ties broken by smallest column index). On non-degenerate
	// platform LPs it takes far fewer pivots than Bland's rule; the
	// automatic fallback (Options.BlandAfter) covers the degenerate
	// cases where Dantzig's rule can stall or cycle. Note that a
	// different pivot path can end on a different — equally optimal,
	// equally certified — vertex when the optimum is not unique.
	PricingDantzig
)

func (p Pricing) String() string {
	if p == PricingDantzig {
		return "dantzig"
	}
	return "bland"
}

const (
	// DefaultPivotFactor scales the default pivot budget:
	// factor*(rows+cols+1), a generous budget for the platform-sized
	// programs of this repository.
	DefaultPivotFactor = 200
	// DefaultBlandAfter is the number of consecutive degenerate
	// pivots after which the solver abandons Dantzig pricing for
	// Bland's rule (and returns to Dantzig on the next improving
	// pivot). Exact arithmetic has no numerical stalling, so a run
	// of degenerate pivots this long is evidence of genuine
	// degeneracy — the regime where Dantzig's rule can cycle.
	DefaultBlandAfter = 32
)

// Options configures an exact solve. The zero value (or a nil
// *Options) selects Bland pricing, the default pivot budget and the
// default fallback threshold, matching Model.Solve.
type Options struct {
	// Pricing is the entering rule (default PricingBland).
	Pricing Pricing
	// PivotBudget caps total pivots across all phases; exceeding it
	// returns ErrIterationLimit. <= 0 selects the default budget
	// DefaultPivotFactor*(rows+cols+1).
	PivotBudget int
	// BlandAfter is the consecutive-degenerate-pivot threshold that
	// triggers the Bland anti-cycling fallback under PricingDantzig
	// (it is moot under PricingBland). 0 selects DefaultBlandAfter; a
	// negative value disables the fallback entirely (a cycling LP
	// then runs into PivotBudget — only useful for demonstrating
	// that the fallback matters, as the regression tests do).
	BlandAfter int
	// WarmBasis, when non-nil, asks the solver to start from this
	// basis (normally Solution.Basis() of a structurally identical
	// model solved earlier). A basis that no longer fits the model —
	// wrong shape, singular, or too infeasible to repair with dual
	// pivots — is silently discarded and the solve proceeds cold;
	// Solution.Info.WarmStarted reports which path ran. With FloatFirst
	// on, the basis is installed and judged in float64 first and only
	// one that is primal or dual feasible there goes on to the exact
	// install: the screen can cost a warm start float64 misjudges,
	// never correctness.
	WarmBasis *Basis
	// FloatFirst runs the simplex *search* in sparse float64 and only
	// the *certificate* in exact rationals: the float-optimal basis is
	// reinstalled exactly, primal and dual feasibility are verified in
	// big.Rat, and disagreements are repaired with at most RepairBudget
	// exact pivots (SolveInfo.FloatPivots / RepairPivots report the
	// split). Every returned value is exactly certified — identical
	// guarantees to the pure-exact solve — and if the float phase
	// fails in any way the solver silently falls back to the
	// pure-exact path (SolveInfo.CertifiedCold). A warm basis, when
	// also present and accepted, takes precedence: the float search
	// only runs for solves that would otherwise be cold.
	FloatFirst bool
	// RepairBudget caps the exact repair pivots of a float-first
	// certification; beyond it the float basis is abandoned and the
	// solve falls back to the pure-exact path. <= 0 selects
	// DefaultRepairFloor + rows.
	RepairBudget int
	// Obs, when non-nil, receives per-solve metrics: pivot and
	// refactorization counters, the solve path taken
	// (cold/warm/float), fallback counts, and wall-time spans per
	// phase. Observation is strictly one-way — nothing read from the
	// registry influences the solve — and a nil registry costs a nil
	// check per solve.
	Obs *obs.Registry
}

// DefaultRepairFloor is the constant part of the default float-first
// repair budget (DefaultRepairFloor + rows): enough slack for the
// handful of pivots a float/exact disagreement needs, far below a
// full cold solve's pivot count on anything sizable.
const DefaultRepairFloor = 32

// resolveRepairBudget resolves Options.RepairBudget for a model with
// nRows standardized rows.
func resolveRepairBudget(o *Options, nRows int) int {
	if o != nil && o.RepairBudget > 0 {
		return o.RepairBudget
	}
	return DefaultRepairFloor + nRows
}

// params are the resolved per-solve knobs.
type params struct {
	pricing    Pricing
	budget     int
	blandAfter int // < 0: fallback disabled
	noFallback bool
}

func (m *Model) resolveParams(o *Options, nRows, nCols int) params {
	p := params{pricing: PricingBland, blandAfter: DefaultBlandAfter}
	if o != nil {
		p.pricing = o.Pricing
		if o.BlandAfter > 0 {
			p.blandAfter = o.BlandAfter
		} else if o.BlandAfter < 0 {
			p.noFallback = true
		}
		if o.PivotBudget > 0 {
			p.budget = o.PivotBudget
		}
	}
	if p.budget <= 0 {
		p.budget = DefaultPivotFactor * (nRows + nCols + 1)
	}
	return p
}
