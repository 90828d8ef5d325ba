package lp

import "repro/pkg/steady/obs"

// The Options.FloatFirst pipeline: float64 proposes, rationals dispose.
//
//  1. search: the simplex runs in engine[float64] over float copies of
//     the standardized model, from the crash basis when every GE and EQ
//     row has right-hand side 0 (the paper's LPs) and through phase 1
//     otherwise: the same branch the exact walk takes, read off the
//     exact b;
//  2. hand over: only its final basis is kept, as the form's column
//     indices less any artificial (what a decoded warm Basis is too);
//  3. install: the basis is factored over exact rationals, on the
//     same stdForm the search ran on;
//  4. certify: primal and dual feasibility are checked exactly;
//  5. repair: disagreements cost exact primal/dual pivots
//     (SolveInfo.RepairPivots), at most 32 + rows of them;
//  6. fallback: when the search fails (cycling, numerically singular
//     basis, a status other than Optimal) or the budget runs out, the
//     float work is dropped and the model is solved pure-exact
//     (SolveInfo.CertifiedCold).
//
// No float reaches the caller, so the search can cost time, never
// correctness. It is cheap because both engines are one engine: under
// the same pricing rule the float walk makes the exact walk's
// decisions, ends on its basis, and steps 4–5 find nothing to repair.

// solveFloatFirst is the Options.FloatFirst solve path: fe is the
// float engine over s, repairBudget the certificate's pivot budget.
func solveFloatFirst(s *stdForm, fe *engine[float64], par params, repairBudget int, reg *obs.Registry) (*Solution, error) {
	fsp := reg.StartSpan("lp_float_search")
	fstatus, ferr := fe.twoPhase(nil)
	fsp.End()
	fpivots := fe.info.Pivots

	// A float status other than Optimal (or a numerical failure) is
	// never trusted: Infeasible/Unbounded must be re-derived exactly.
	if ferr == nil && fstatus == Optimal {
		csp := reg.StartSpan("lp_certify")
		cpar := par
		cpar.budget = repairBudget
		// Artificials stay out, as they do of an encoded Basis: the
		// install pads the rows they held.
		colIdx := make([]int, 0, len(fe.basis))
		for _, j := range fe.basis {
			if s.cols[j].kind != colArtificial {
				colIdx = append(colIdx, j)
			}
		}
		sol := solveFromBasis(s, colIdx, cpar)
		csp.End()
		if sol != nil {
			sol.Info.RepairPivots = sol.Info.Pivots
			sol.Info.FloatPivots = fpivots
			return sol, nil
		}
	}
	if par.stopped() {
		return nil, ErrInterrupted // the search or the repair was stopped, not defeated
	}
	sol, err := solveCold(s, par, reg)
	if err != nil {
		return nil, err
	}
	sol.Info.FloatPivots = fpivots
	sol.Info.CertifiedCold = true
	return sol, nil
}
