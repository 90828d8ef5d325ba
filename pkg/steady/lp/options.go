package lp

import "repro/pkg/steady/obs"

// pricing selects the entering-variable rule of the simplex.
type pricing int

const (
	// pricingDantzig, the rule of every solve, enters the column with
	// the most positive reduced cost, ties to the smallest column index,
	// and after a degenerate pivot enters Bland's smallest improving
	// index instead, until the next pivot that moves (Options.blandAfter
	// sets how many degenerate pivots it takes). One rule serves every
	// walk of both kernels — the float search from the crash basis, the
	// exact fallback walk and the certificate's repair —
	// so the float walk makes the exact walk's decisions and float-first
	// ends on its basis. Candidates are compared with the kernel's cmp, not a
	// strict less: two reduced costs that are equal in rationals may come
	// out of float64 an ulp apart, and the tolerance gives such a pair to
	// the smaller index in both kernels.
	//
	// On the served master-slave miss at n=48 the float walk takes 3.8
	// pivots on average where Bland's rule takes 9.5, and its tail
	// shrinks most: 34 at worst over BenchmarkLPColdMiss48's 64
	// platforms, against 98. Only the vertex of a non-unique optimum can
	// differ from Bland's, never the objective.
	pricingDantzig pricing = iota
	// pricingBland always enters the smallest-index improving column. It
	// cannot cycle. No solve runs it: it is the reference the engine's
	// own tests hold the default rule to.
	pricingBland
)

const (
	// defaultPivotFactor scales the pivot budget: factor*(rows+cols+1),
	// a generous budget for the platform-sized programs of this
	// repository.
	defaultPivotFactor = 200
	// defaultBlandAfter is the number of consecutive degenerate pivots
	// after which pricingDantzig enters by Bland's rule (and returns to
	// Dantzig's on the next pivot that moves). The paper's LPs start
	// degenerate at the crash basis, and the longer Dantzig's rule runs
	// through a degenerate stretch, the longer the collective walks get.
	// Float pivots of TestLPPivotCounts' rows (the master-slave family:
	// total / longest):
	//
	//	threshold                 1       2       8      32   pure Bland
	//	LPColdMiss48 family  244/34  231/26  241/32  234/29       607/98
	//	LPColdBroadcast24        34      34      40      64           34
	//	LPColdBroadcast48        71      72      80     109           71
	//	LPColdReduce48          311     312     316     320          310
	//
	// 1 is the simplest rule to state — Bland's after any degenerate
	// pivot — and keeps the collectives within a pivot of pure Bland's.
	defaultBlandAfter = 1
	// defaultRepairFloor is the constant part of the float-first
	// repair budget (defaultRepairFloor + rows): enough slack for the
	// handful of pivots a float/exact disagreement needs, far below a
	// full cold solve's pivot count on anything sizable.
	defaultRepairFloor = 32
)

// Options configures a solve. The zero value (or a nil *Options) is
// Model.Solve: a solve nobody can interrupt, searched in float64 and
// certified in exact rationals like every other.
type Options struct {
	// Interrupt, when closed, stops the solve at its next pivot,
	// whichever stage is taking it — the float search, the
	// certificate's repair, the exact walk — or, before the first,
	// between two blocks of standardize, the float engine's load, the
	// crash basis or a basis install; the call
	// returns ErrInterrupted and no Solution. nil never interrupts, and
	// a channel nobody closes changes no decision of the solve. A
	// context's Done() is the intended value.
	Interrupt <-chan struct{}
	// Obs, when non-nil, receives per-solve metrics: pivot and
	// refactorization counters, the solve path taken
	// (cold/float), fallback counts, and wall-time spans per
	// phase. Observation is strictly one-way — nothing read from the
	// registry influences the solve — and a nil registry costs a nil
	// check per solve.
	Obs *obs.Registry

	// What follows no caller outside the package sets: the engine's
	// own tests do, to reach the paths the defaults never take.

	// pricing is the entering rule (default pricingDantzig).
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
	// the parity tests and fuzzers hold the float walk to.
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
	p := params{blandAfter: defaultBlandAfter}
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
