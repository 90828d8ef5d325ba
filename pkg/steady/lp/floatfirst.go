package lp

// The Options.FloatFirst pipeline: float64 proposes, rationals dispose.
//
//  1. search: the two-phase simplex runs in engine[float64] over
//     float copies of the standardized model;
//  2. encode: only its final basis is kept, in model terms
//     (encodeBasis — the representation warm starts use);
//  3. install: the basis is factored over exact rationals;
//  4. certify: primal and dual feasibility are checked exactly;
//  5. repair: disagreements cost exact primal/dual pivots
//     (SolveInfo.RepairPivots), at most Options.RepairBudget;
//  6. fallback: when the search fails (cycling, numerically singular
//     basis, a status other than Optimal) or the budget runs out, the
//     float work is dropped and the model is solved pure-exact
//     (SolveInfo.CertifiedCold).
//
// No float reaches the caller, so the search can cost time, never
// correctness. It is cheap because both engines are one engine: under
// the same pricing rule the float walk makes the exact walk's
// decisions, ends on its basis, and steps 4–5 find nothing to repair.

// solveFloatFirst is the Options.FloatFirst solve path.
func (m *Model) solveFloatFirst(opts *Options) (*Solution, error) {
	reg := obsOf(opts)
	s := m.standardize()
	par := m.resolveParams(opts, len(s.rows), len(s.cols))

	fsp := reg.StartSpan("lp_float_search")
	fe := newEngine[float64](floatKernel{}, s, par)
	fstatus, ferr := fe.twoPhase(nil)
	fsp.End()
	fpivots := fe.info.Pivots

	// A float status other than Optimal (or a numerical failure) is
	// never trusted: Infeasible/Unbounded must be re-derived exactly.
	if ferr == nil && fstatus == Optimal {
		csp := reg.StartSpan("lp_certify")
		par.budget = resolveRepairBudget(opts, len(s.rows))
		sol := m.solveFromBasis(s, encodeBasis(s, fe.basis), par)
		csp.End()
		if sol != nil {
			sol.Info.RepairPivots = sol.Info.Pivots
			sol.Info.FloatPivots = fpivots
			return sol, nil
		}
	}
	sol, err := m.solveCold(opts)
	if err != nil {
		return nil, err
	}
	sol.Info.FloatPivots = fpivots
	sol.Info.CertifiedCold = true
	return sol, nil
}
