package lp

import "repro/pkg/steady/obs"

// pricing selects the entering-variable rule of the simplex.
type pricing int

const (
	// pricingBland always enters the smallest-index improving column.
	// It cannot cycle, and — because it is the rule the historical
	// dense engine used — it reproduces that engine's pivot sequence
	// and optimal vertex bit-for-bit on the same model, which is why
	// it is the rule every solve runs under: every certified golden
	// value in this repository (activity variables included, not just
	// objectives) is pinned to it.
	pricingBland pricing = iota
	// pricingDantzig enters the column with the most positive reduced
	// cost (ties broken by smallest column index). On non-degenerate
	// platform LPs it takes far fewer pivots than Bland's rule; the
	// automatic fallback (Options.blandAfter) covers the degenerate
	// cases where Dantzig's rule can stall or cycle. Note that a
	// different pivot path can end on a different — equally optimal,
	// equally certified — vertex when the optimum is not unique.
	pricingDantzig
)

const (
	// defaultPivotFactor scales the pivot budget: factor*(rows+cols+1),
	// a generous budget for the platform-sized programs of this
	// repository.
	defaultPivotFactor = 200
	// defaultBlandAfter is the number of consecutive degenerate
	// pivots after which the solver abandons Dantzig pricing for
	// Bland's rule (and returns to Dantzig on the next improving
	// pivot). Exact arithmetic has no numerical stalling, so a run
	// of degenerate pivots this long is evidence of genuine
	// degeneracy — the regime where Dantzig's rule can cycle.
	defaultBlandAfter = 32
	// defaultRepairFloor is the constant part of the float-first
	// repair budget (defaultRepairFloor + rows): enough slack for the
	// handful of pivots a float/exact disagreement needs, far below a
	// full cold solve's pivot count on anything sizable.
	defaultRepairFloor = 32
)

// Options configures a solve. The zero value (or a nil *Options) is
// Model.Solve: a cold solve nobody can interrupt, searched in float64
// and certified in exact rationals like every other.
type Options struct {
	// WarmBasis, when non-nil, asks the solver to start from this
	// basis (normally Solution.Basis() of a structurally identical
	// model solved earlier). The basis is installed and judged in
	// float64 first, and only one that is primal or dual feasible there
	// goes on to the exact install: the screen can cost a warm start
	// float64 misjudges, never correctness. A basis that no longer fits
	// the model — wrong shape, singular, turned away by the screen, or
	// too infeasible to repair with dual pivots — is silently discarded
	// and the solve proceeds cold; Solution.Info.WarmStarted reports
	// which path ran.
	WarmBasis *Basis
	// Interrupt, when closed, stops the solve at its next pivot,
	// whichever stage is taking it — the float search, a warm start's
	// reoptimization, the certificate's repair, the cold solve — or,
	// before the first, between two blocks of standardize, the float
	// engine's load, the crash basis or a basis install; the call
	// returns ErrInterrupted and no Solution. nil never interrupts, and
	// a channel nobody closes changes no decision of the solve. A
	// context's Done() is the intended value.
	Interrupt <-chan struct{}
	// Obs, when non-nil, receives per-solve metrics: pivot and
	// refactorization counters, the solve path taken
	// (cold/warm/float), fallback counts, and wall-time spans per
	// phase. Observation is strictly one-way — nothing read from the
	// registry influences the solve — and a nil registry costs a nil
	// check per solve.
	Obs *obs.Registry

	// What follows no caller outside the package sets: the engine's
	// own tests do, to reach the paths the defaults never take.

	// pricing is the entering rule (default pricingBland).
	pricing pricing
	// pivotBudget caps total pivots across all phases; exceeding it
	// returns ErrIterationLimit. <= 0 selects
	// defaultPivotFactor*(rows+cols+1).
	pivotBudget int
	// blandAfter is the consecutive-degenerate-pivot threshold that
	// triggers the Bland anti-cycling fallback under pricingDantzig
	// (it is moot under pricingBland). 0 selects defaultBlandAfter; a
	// negative value disables the fallback entirely (a cycling LP
	// then runs into pivotBudget).
	blandAfter int
	// repairBudget caps the exact repair pivots of the certificate;
	// beyond it the float basis is abandoned and the solve falls back
	// to the exact walk. <= 0 selects defaultRepairFloor + rows.
	repairBudget int
	// exactWalk skips the float search of a cold solve and runs the
	// fallback, the exact two-phase walk, in its place: the reference
	// the parity tests and fuzzers hold the float walk to. A warm hint
	// is screened and installed as without it.
	exactWalk bool
	// afterPivot runs after every pivot of every stage, float and
	// exact: how a test closes Interrupt at a pivot of its choosing.
	afterPivot func()
}

// resolveRepairBudget resolves Options.repairBudget for a model with
// nRows standardized rows.
func resolveRepairBudget(o *Options, nRows int) int {
	if o != nil && o.repairBudget > 0 {
		return o.repairBudget
	}
	return defaultRepairFloor + nRows
}

// params are the resolved per-solve knobs.
type params struct {
	pricing    pricing
	budget     int
	blandAfter int // < 0: fallback disabled
	noFallback bool
	interrupt  <-chan struct{}
	afterPivot func()
}

func (m *Model) resolveParams(o *Options, nRows, nCols int) params {
	p := params{pricing: pricingBland, blandAfter: defaultBlandAfter}
	if o != nil {
		p.pricing = o.pricing
		if o.blandAfter > 0 {
			p.blandAfter = o.blandAfter
		} else if o.blandAfter < 0 {
			p.noFallback = true
		}
		if o.pivotBudget > 0 {
			p.budget = o.pivotBudget
		}
		p.interrupt, p.afterPivot = o.Interrupt, o.afterPivot
	}
	if p.budget <= 0 {
		p.budget = defaultPivotFactor * (nRows + nCols + 1)
	}
	return p
}

// stopped reports that the caller has closed Options.Interrupt.
func (p *params) stopped() bool { return closed(p.interrupt) }

// pollEvery is how many rows or columns the stages before the first
// pivot walk between two polls of Options.Interrupt: prompt at a
// deadline, at no cost a solve can measure.
const pollEvery = 64

// closed reports that ch is closed; a nil ch never is.
func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}
