package lp

import (
	"testing"

	"repro/pkg/steady/rat"
)

// eps60 is 2^-60: a rational objective perturbation that vanishes when
// rounded to float64 (1 + 2^-60 == 1.0 in float64, since the mantissa
// carries 52 fraction bits). The float-first search cannot see it, so
// any optimum that depends on it MUST come from the exact
// certification — these are the adversarial models that force the
// repair path.
var eps60 = rat.New(1, 1<<60)

// solveBoth runs the same model through the exact walk (cold) and
// float-first under opts, and returns both solutions, failing the test
// on any solve error or status mismatch.
func solveBoth(t *testing.T, build func() *Model, opts *Options) (cold, ff *Solution) {
	t.Helper()
	var err error
	cold, err = build().SolveOpts(&Options{exactWalk: true})
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	ff, err = build().SolveOpts(opts)
	if err != nil {
		t.Fatalf("float-first solve: %v", err)
	}
	if cold.Status != ff.Status {
		t.Fatalf("status: cold %v, float-first %v", cold.Status, ff.Status)
	}
	return cold, ff
}

// assertIdentical demands byte-identical certified output: objective,
// every variable value, every dual — and that the output is an optimum
// of m by the duality certificate, which neither solve had a hand in.
func assertIdentical(t *testing.T, m *Model, cold, ff *Solution) {
	t.Helper()
	if err := m.CheckOptimal(ff.values, ff.duals); err != nil {
		t.Fatalf("float-first solution is not a certified optimum: %v", err)
	}
	if !cold.Objective.Equal(ff.Objective) {
		t.Fatalf("objective: cold %v, float-first %v", cold.Objective, ff.Objective)
	}
	for v := 0; v < m.NumVars(); v++ {
		if !cold.Value(Var(v)).Equal(ff.Value(Var(v))) {
			t.Fatalf("value of var %d: cold %v, float-first %v", v, cold.Value(Var(v)), ff.Value(Var(v)))
		}
	}
	for i := 0; i < m.NumCons(); i++ {
		if !cold.Dual(i).Equal(ff.Dual(i)) {
			t.Fatalf("dual of con %d: cold %v, float-first %v", i, cold.Dual(i), ff.Dual(i))
		}
	}
}

// TestFloatFirstRandomParity: across random LPs, the float-first path
// must return byte-identical status, objective, values and duals to the
// exact walk it falls back to. Both are one engine, so on these well-scaled
// models the float search lands on the exact solve's own terminal
// basis and certification costs zero repair pivots. The wide cases
// take both instantiations past what the small ones never reach: more
// than reinvertEvery rows and pivots (periodic refactorization), and
// the switch to Bland's rule and back, after one degenerate pivot by
// default and after two in wide-dantzig. The
// block-angular family adds what the LE families lack — equality rows,
// a phase 1, and network bases the install peels into a triangle — and
// a third opinion on every family: the duality certificate of
// CheckOptimal (inside assertIdentical) shares no code with the engine
// and must accept the optimum the two instantiations agree on.
func TestFloatFirstRandomParity(t *testing.T) {
	for _, tc := range []struct {
		name      string
		model     func(seed, perturb int64) *Model
		seeds     int64
		opts      Options
		minPivots int  // some seed must take this many in both instantiations
		fallback  bool // some seed must engage the Bland fallback
	}{
		{"small", randomSeededLEModel, 200, Options{}, 0, false},
		{"wide", wideSeededLEModel, 12, Options{}, 2 * reinvertEvery, true},
		{"wide-dantzig", wideSeededLEModel, 12, Options{pricing: pricingDantzig, blandAfter: 2}, 0, true},
		{"block-angular", blockAngularSeededModel, 12, Options{}, reinvertEvery, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			repairs, fallbacks, maxPivots, blandPivots := 0, 0, 0, 0
			for seed := int64(0); seed < tc.seeds; seed++ {
				coldOpts, ffOpts := tc.opts, tc.opts
				coldOpts.exactWalk = true
				cold, err := tc.model(seed, 0).SolveOpts(&coldOpts)
				if err != nil {
					t.Fatal(err)
				}
				m := tc.model(seed, 0)
				ff, err := m.SolveOpts(&ffOpts)
				if err != nil {
					t.Fatal(err)
				}
				if cold.Status != ff.Status {
					t.Fatalf("seed %d: status cold %v, float-first %v", seed, cold.Status, ff.Status)
				}
				// These models have no redundant rows to drop, so an
				// exact solve refactors only on the pivot cadence (the
				// engine once counted etas, not pivots, and refactored
				// on every pivot of a model this wide).
				if limit := 1 + cold.Info.Pivots/reinvertEvery; cold.Info.Refactorizations > limit {
					t.Fatalf("seed %d: %d refactorizations in %d exact pivots, want <= %d",
						seed, cold.Info.Refactorizations, cold.Info.Pivots, limit)
				}
				if cold.Status != Optimal {
					continue
				}
				assertIdentical(t, m, cold, ff)
				if ff.Info.RepairPivots > 0 {
					repairs++
				}
				if ff.Info.CertifiedCold {
					fallbacks++
				}
				maxPivots = max(maxPivots, min(cold.Info.Pivots, ff.Info.FloatPivots))
				blandPivots += cold.Info.BlandPivots
			}
			t.Logf("repaired=%d fallbacks=%d of %d, max pivots %d, exact Bland-fallback pivots %d",
				repairs, fallbacks, tc.seeds, maxPivots, blandPivots)
			if maxPivots < tc.minPivots {
				t.Fatalf("no seed took %d pivots in both instantiations (max %d)", tc.minPivots, maxPivots)
			}
			if tc.fallback && blandPivots == 0 {
				t.Fatal("no seed engaged the Bland fallback")
			}
		})
	}
}

// TestFloatFirstBealeCycling: Beale's classic cycling LP is maximally
// degenerate — every phase-2 pivot of the cycle is degenerate. The
// float-first path must agree with the exact walk byte for byte
// under the default rule (both engines enter by Bland's rule after each
// degenerate pivot) and under pure Bland.
func TestFloatFirstBealeCycling(t *testing.T) {
	for _, pricing := range []pricing{pricingDantzig, pricingBland} {
		cold, err := bealeModel().SolveOpts(&Options{pricing: pricing, exactWalk: true})
		if err != nil {
			t.Fatal(err)
		}
		m := bealeModel()
		ff, err := m.SolveOpts(&Options{pricing: pricing})
		if err != nil {
			t.Fatal(err)
		}
		if cold.Status != Optimal || ff.Status != Optimal {
			t.Fatalf("pricing %v: status cold %v, float-first %v", pricing, cold.Status, ff.Status)
		}
		if want := rat.New(1, 20); !ff.Objective.Equal(want) {
			t.Fatalf("pricing %v: objective %v, want 1/20", pricing, ff.Objective)
		}
		assertIdentical(t, m, cold, ff)
	}
}

// TestFloatFirstExactTieEntersSmallerIndex: after the walk has entered
// x2 and x3, x0 and x1 both price at exactly 3/10, but float64 sums
// x1's two terms to 0.1 + 0.2, one ulp above x0's 0.3. The optimum is
// the whole face x0 + x1 = 1, and whichever enters is where the walk
// ends. Dantzig's argmax must give the tie to the smaller index in both
// kernels, so the float walk ends on the exact walk's vertex x0 = 1; a
// strict float comparison would enter x1 and certify the other end of
// the face with no repair to notice.
func TestFloatFirstExactTieEntersSmallerIndex(t *testing.T) {
	build := func() *Model {
		m := NewModel()
		x0, x1, x2, x3 := m.Var("x0"), m.Var("x1"), m.Var("x2"), m.Var("x3")
		m.Objective(Maximize, Expr{{x2, ri(1)}, {x3, ri(1)}})
		m.Le("r0", Expr{{x0, rr(-3, 10)}, {x1, rr(-1, 10)}, {x2, ri(1)}}, ri(1))
		m.Le("r1", Expr{{x1, rr(-2, 10)}, {x3, ri(1)}}, ri(1))
		m.Le("face", Expr{{x0, ri(1)}, {x1, ri(1)}}, ri(1))
		return m
	}
	var k floatKernel
	y := []float64{1, 1} // x2 and x3 basic on r0 and r1
	d0 := k.reducedCost(0, []entry[float64]{{0, k.conv(rr(-3, 10))}}, y)
	d1 := k.reducedCost(0, []entry[float64]{{0, k.conv(rr(-1, 10))}, {1, k.conv(rr(-2, 10))}}, y)
	if !(d0 < d1) || k.cmp(d0, d1) != 0 {
		t.Fatalf("float64 prices the tie %v, %v: not a tie an ulp apart", d0, d1)
	}
	m := build()
	cold, ff := solveBoth(t, build, nil)
	if !ff.Value(0).Equal(ri(1)) || !ff.Objective.Equal(rr(23, 10)) {
		t.Fatalf("float-first ended at x0 = %v, objective %v; want x0 = 1, 23/10", ff.Value(0), ff.Objective)
	}
	if ff.Info.RepairPivots != 0 || ff.Info.CertifiedCold {
		t.Fatalf("the float walk did not end on a basis the certificate accepts as is: %+v", ff.Info)
	}
	assertIdentical(t, m, cold, ff)
}

// TestFloatFirstEpsilonObjectiveForcesRepair: the objective prefers y
// by 2^-60 — invisible in float64, so the float search stops at the
// x-vertex. Certification must detect the exactly-positive reduced
// cost and repair with exact pivots to the true optimum 1 + 2^-60.
func TestFloatFirstEpsilonObjectiveForcesRepair(t *testing.T) {
	build := func() *Model {
		m := NewModel()
		x, y := m.Var("x"), m.Var("y")
		m.Objective(Maximize, Expr{{x, ri(1)}, {y, ri(1).Add(eps60)}})
		m.Le("cap", Expr{{x, ri(1)}, {y, ri(1)}}, ri(1))
		return m
	}
	m := build()
	cold, ff := solveBoth(t, build, nil)
	if ff.Info.RepairPivots == 0 && !ff.Info.CertifiedCold {
		t.Fatalf("float basis accepted unrepaired, but the float search cannot see the 2^-60 objective gap: %+v", ff.Info)
	}
	want := ri(1).Add(eps60)
	if !ff.Objective.Equal(want) {
		t.Fatalf("objective %v, want 1 + 2^-60", ff.Objective)
	}
	assertIdentical(t, m, cold, ff)
}

// TestFloatFirstRepairBudgetFallback: with three variables separated
// by float-invisible objective gaps, repairing the float basis takes
// two exact pivots; a repairBudget of one forces the certification to
// abandon the float work and fall back to the exact walk (CertifiedCold), and
// the result must still be the true optimum.
func TestFloatFirstRepairBudgetFallback(t *testing.T) {
	build := objectiveGapsModel
	m := build()
	cold, ff := solveBoth(t, build, &Options{repairBudget: 1})
	if !ff.Info.CertifiedCold {
		t.Fatalf("repairBudget=1 must force the exact fallback (the repair needs 2 pivots): %+v", ff.Info)
	}
	want := ri(1).Add(eps60).Add(eps60)
	if !ff.Objective.Equal(want) {
		t.Fatalf("objective %v, want 1 + 2^-59", ff.Objective)
	}
	assertIdentical(t, m, cold, ff)

	// With an adequate budget the same model certifies via repair
	// instead of falling back.
	ff2, err := build().Solve()
	if err != nil {
		t.Fatal(err)
	}
	if ff2.Info.CertifiedCold || ff2.Info.RepairPivots == 0 {
		t.Fatalf("default budget should repair in-place: %+v", ff2.Info)
	}
}

// TestFloatFirstDegeneratePhase1Repair: a system with an all-zero row
// and a duplicated equality exercises phase 1's artificial machinery
// and the redundant-row drop in both engines, while the 2^-60
// objective gap still forces the exact repair (or fallback) path.
func TestFloatFirstDegeneratePhase1Repair(t *testing.T) {
	build := degeneratePhase1Model
	m := build()
	cold, ff := solveBoth(t, build, nil)
	if ff.Info.RepairPivots == 0 && !ff.Info.CertifiedCold {
		t.Fatalf("degenerate model with float-invisible gap certified unrepaired: %+v", ff.Info)
	}
	want := ri(1).Add(eps60)
	if !ff.Objective.Equal(want) {
		t.Fatalf("objective %v, want 1 + 2^-60", ff.Objective)
	}
	assertIdentical(t, m, cold, ff)
}

// TestFloatFirstIllConditionedConstraints: two near-parallel
// constraints whose coefficients differ by 2^-60 are
// indistinguishable in float64. The float search optimizes against
// the wrong (collapsed) geometry; the exact certification must
// detect the exactly-infeasible or suboptimal basis and repair or
// fall back, landing on the true vertex y = 1/(1+2^-60).
func TestFloatFirstIllConditionedConstraints(t *testing.T) {
	build := func() *Model {
		m := NewModel()
		x, y := m.Var("x"), m.Var("y")
		m.Objective(Maximize, Expr{{x, ri(1)}, {y, ri(2)}})
		m.Le("r1", Expr{{x, ri(1)}, {y, ri(1)}}, ri(1))
		m.Le("r2", Expr{{x, ri(1)}, {y, ri(1).Add(eps60)}}, ri(1))
		return m
	}
	m := build()
	cold, ff := solveBoth(t, build, nil)
	if ff.Info.RepairPivots == 0 && !ff.Info.CertifiedCold {
		t.Fatalf("float basis accepted against exactly-tighter constraint: %+v", ff.Info)
	}
	want := ri(2).Div(ri(1).Add(eps60))
	if !ff.Objective.Equal(want) {
		t.Fatalf("objective %v, want 2/(1+2^-60)", ff.Objective)
	}
	assertIdentical(t, m, cold, ff)
	if err := m.CheckFeasible(ff.Values()); err != nil {
		t.Fatalf("certified point infeasible: %v", err)
	}
}

// TestFloatFirstInfeasibleAndUnbounded: non-Optimal statuses are
// never trusted from the float phase — both must be re-derived by the
// exact engine (CertifiedCold) and agree with the cold solve.
func TestFloatFirstInfeasibleAndUnbounded(t *testing.T) {
	infeasible := func() *Model {
		m := NewModel()
		x := m.Var("x")
		m.Objective(Maximize, Expr{{x, ri(1)}})
		m.Le("lo", Expr{{x, ri(1)}}, ri(-1))
		return m
	}
	_, ff := solveBoth(t, infeasible, nil)
	if ff.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", ff.Status)
	}
	if !ff.Info.CertifiedCold {
		t.Fatalf("infeasible status must be certified by the exact engine: %+v", ff.Info)
	}

	unbounded := func() *Model {
		m := NewModel()
		x := m.Var("x")
		m.Objective(Maximize, Expr{{x, ri(1)}})
		m.Ge("lo", Expr{{x, ri(1)}}, ri(1))
		return m
	}
	_, ff = solveBoth(t, unbounded, nil)
	if ff.Status != Unbounded {
		t.Fatalf("status %v, want unbounded", ff.Status)
	}
}

// FuzzFloatFirstParity drives the random-LP generators from fuzzed
// (seed, perturb, shape) triples and puts the float-first path before two
// judges: the exact walk it falls back to, forced (same status,
// byte-identical objective), and the duality certificate (both
// solutions proven optimal). A
// nonzero stop then closes Options.Interrupt after that many pivots of
// the same solve, which must either not notice — the same solution,
// SolveInfo included — or return ErrInterrupted. Run with
// `go test -fuzz FuzzFloatFirstParity ./pkg/steady/lp` to search beyond
// the corpus.
func FuzzFloatFirstParity(f *testing.F) {
	f.Add(int64(0), int64(0), uint8(0), uint8(0))
	f.Add(int64(1), int64(0), uint8(0), uint8(0))
	f.Add(int64(7), int64(3), uint8(0), uint8(3))
	f.Add(int64(42), int64(-5), uint8(0), uint8(0))
	f.Add(int64(1<<40), int64(97), uint8(0), uint8(1))
	f.Add(int64(-1), int64(1), uint8(0), uint8(0))
	f.Add(int64(9), int64(0), uint8(1), uint8(40)) // wide: 33 pivots (133 under pure Bland), two exact refactorizations
	f.Add(int64(3), int64(2), uint8(1), uint8(0))
	f.Add(int64(3), int64(0), uint8(3), uint8(7)) // wide, pure Bland: 110 pivots (49 under the default rule)
	f.Add(int64(8), int64(-1), uint8(3), uint8(0))
	f.Add(int64(5), int64(1), uint8(2), uint8(2)) // small, pure Bland
	f.Add(int64(2), int64(0), uint8(4), uint8(9)) // block-angular: equality rows, network bases
	f.Add(int64(6), int64(4), uint8(4), uint8(0))
	f.Add(int64(11), int64(-3), uint8(6), uint8(5)) // block-angular, pure Bland
	f.Add(int64(4), int64(0), uint8(8), uint8(0))   // mixed: phase 1 on nonzero GE/EQ rows
	f.Add(int64(13), int64(5), uint8(8), uint8(2))
	f.Add(int64(21), int64(-2), uint8(10), uint8(0)) // mixed, pure Bland
	f.Fuzz(func(t *testing.T, seed, perturb int64, shape, stop uint8) {
		if perturb > 1<<30 || perturb < -(1<<30) {
			return // keep rationals small enough to solve fast
		}
		// shape bit 0: the 80-row family; bit 1: pure Bland pricing, the
		// reference rule, instead of the default, so float-first is held to
		// the exact walk under both; bit 2: the block-angular family
		// instead (crash start); bit 3: the mixed GE/EQ family instead
		// (phase 1).
		model, opts := randomSeededLEModel, Options{}
		if shape&1 != 0 {
			model = wideSeededLEModel
		}
		if shape&4 != 0 {
			model = blockAngularSeededModel
		}
		if shape&8 != 0 {
			model = mixedSeededModel
		}
		if shape&2 != 0 {
			opts = Options{pricing: pricingBland}
		}
		coldOpts := opts
		coldOpts.exactWalk = true
		cold, err := model(seed, perturb).SolveOpts(&coldOpts)
		if err != nil {
			t.Skip() // budget-class errors affect both paths alike
		}
		m := model(seed, perturb)
		ff, err := m.SolveOpts(&opts)
		if err != nil {
			t.Fatalf("seed %d/%d: float-first errored where exact succeeded: %v", seed, perturb, err)
		}
		if cold.Status != ff.Status {
			t.Fatalf("seed %d/%d: status cold %v, float-first %v", seed, perturb, cold.Status, ff.Status)
		}
		if stop > 0 {
			c := interruptCase{build: func() *Model { return model(seed, perturb) }, opts: opts}
			if err := c.cutShort(int(stop), ff); err != nil {
				t.Fatalf("seed %d/%d: interrupted after %d pivots: %v", seed, perturb, stop, err)
			}
		}
		if cold.Status != Optimal {
			return
		}
		if !cold.Objective.Equal(ff.Objective) {
			t.Fatalf("seed %d/%d: objective cold %v, float-first %v", seed, perturb, cold.Objective, ff.Objective)
		}
		for _, sol := range []*Solution{cold, ff} {
			if err := m.CheckOptimal(sol.values, sol.duals); err != nil {
				t.Fatalf("seed %d/%d: not a certified optimum: %v", seed, perturb, err)
			}
		}
	})
}
