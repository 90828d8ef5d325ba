package lp

import (
	"errors"
	"testing"
)

// degeneratePhase1Model has an all-zero equality row and a duplicated
// one — phase 1's artificial machinery and the redundant-row drop — and
// an objective gap of 2^-60 that float64 cannot see, so the certificate
// refuses a float-first solve's basis and the exact walk answers.
func degeneratePhase1Model() *Model {
	m := NewModel()
	x, y := m.Var("x"), m.Var("y")
	m.Objective(Maximize, Expr{{x, ri(1)}, {y, ri(1).Add(eps60)}})
	m.Eq("zero", Expr{}, ri(0)) // all-zero row: redundant, phase-1 artificial only
	m.Eq("cap", Expr{{x, ri(1)}, {y, ri(1)}}, ri(1))
	m.Eq("dup", Expr{{x, ri(1)}, {y, ri(1)}}, ri(1)) // duplicate: dropped after phase 1
	return m
}

// objectiveGapsModel is three variables under one row 4x + y + 3z <= 1,
// each worth 1 + g·2^-60 per unit of the row (g = 0, 2, 1): float64 sees
// a three-way tie and stops on x, the largest objective coefficient,
// where y and z price exactly positive, so the certificate refuses it.
// The exact walk from the slack takes two pivots under Dantzig's rule:
// z's reduced cost beats y's, and y only enters from z.
func objectiveGapsModel() *Model {
	m := NewModel()
	x, y, z := m.Var("x"), m.Var("y"), m.Var("z")
	m.Objective(Maximize, Expr{{x, ri(4)}, {y, ri(1).Add(eps60).Add(eps60)}, {z, ri(3).Add(eps60).Add(eps60).Add(eps60)}})
	m.Le("cap", Expr{{x, ri(4)}, {y, ri(1)}, {z, ri(3)}}, ri(1))
	return m
}

// boxModel is two variables, each under its own row x <= 1, y <= 1,
// with objective sign·(x + y): maximized at the far corner for +1 and at
// the origin — the starting basis, no pivot needed — for -1.
func boxModel(sign int64) *Model {
	m := NewModel()
	x, y := m.Var("x"), m.Var("y")
	m.Objective(Maximize, Expr{{x, ri(sign)}, {y, ri(sign)}})
	m.Le("cx", Expr{{x, ri(1)}}, ri(1))
	m.Le("cy", Expr{{y, ri(1)}}, ri(1))
	return m
}

// interruptCases is one solve down every path a stage can hand over on,
// with the property of the uninterrupted solve that shows it took it.
func interruptCases() []interruptCase {
	cold := func(s *Solution) bool { return s.Info.FloatPivots == 0 && s.Info.Pivots > 0 }
	certified := func(s *Solution) bool { return s.Info.FloatPivots > 0 && !s.Info.CertifiedCold }
	fellBack := func(s *Solution) bool { return s.Info.FloatPivots > 0 && s.Info.CertifiedCold }
	pivotless := func(s *Solution) bool { return s.Info.Pivots+s.Info.FloatPivots == 0 }
	return []interruptCase{
		{"block-angular/cold", func() *Model { return blockAngularSeededModel(6, 2) }, Options{exactWalk: true}, cold},
		{"block-angular/float-first", func() *Model { return blockAngularSeededModel(6, 2) }, Options{}, certified},
		{"wide/cold", func() *Model { return wideSeededLEModel(9, 0) }, Options{exactWalk: true}, cold},
		{"wide/float-first", func() *Model { return wideSeededLEModel(9, 0) }, Options{}, certified},
		{"degenerate-phase-1/cold", degeneratePhase1Model, Options{exactWalk: true}, cold},
		// The certificate refuses the float basis and the cold stage
		// starts over: a pivot may fall in either walk.
		{"degenerate-phase-1/float-first", degeneratePhase1Model, Options{}, fellBack},
		{"not-optimal-fallback", objectiveGapsModel, Options{}, fellBack},
		// Optimal where it starts: no pivot, so no poll but the one a
		// solve makes before anything else.
		{"pivotless/cold", func() *Model { return boxModel(-1) }, Options{exactWalk: true}, pivotless},
		{"pivotless/float-first", func() *Model { return boxModel(-1) }, Options{}, pivotless},
	}
}

type interruptCase struct {
	name  string
	build func() *Model
	opts  Options
	is    func(*Solution) bool // what the uninterrupted solve must look like
}

// solve runs the case with Interrupt closed after the stop-th pivot of
// the solve, counting the float search's and the cold stage's alike
// (0: closed before the call, negative: never), and reports how many
// pivots the solve was let take.
func (c interruptCase) solve(stop int) (sol *Solution, pivots int, err error) {
	ch := make(chan struct{})
	if stop == 0 {
		close(ch)
	}
	opts := c.opts
	opts.Interrupt = ch
	opts.afterPivot = func() {
		if pivots++; pivots == stop {
			close(ch)
		}
	}
	sol, err = c.build().SolveOpts(&opts)
	return sol, pivots, err
}

// cutShort solves the case with Interrupt closed after stop pivots and
// allows an interruption its two outcomes: ErrInterrupted, or — the
// solve took fewer — want, the uninterrupted solve's solution, SolveInfo
// included.
func (c interruptCase) cutShort(stop int, want *Solution) error {
	sol, _, err := c.solve(stop)
	if errors.Is(err, ErrInterrupted) {
		return nil
	}
	if err == nil {
		err = outcomeDiff(c.build(), sol, want)
	}
	return err
}

// TestInterrupt: Options.Interrupt closed before the solve or after a
// pivot short of its last, in whichever stage that pivot falls, makes
// SolveOpts return ErrInterrupted and nothing else — no Solution, so no
// SolveInfo of a half-done stage, and no later stage's answer, which is
// what an interruption taken for "this stage gives up, go on" would
// produce. A channel nobody closes is invisible: the solve is the
// nil-channel solve, pivot for pivot.
func TestInterrupt(t *testing.T) {
	for _, c := range interruptCases() {
		t.Run(c.name, func(t *testing.T) {
			opts := c.opts
			want, err := c.build().SolveOpts(&opts)
			if err != nil {
				t.Fatal(err)
			}
			if want.Status != Optimal || !c.is(want) {
				t.Fatalf("the case is not what its name says: %v %+v", want.Status, want.Info)
			}
			got, total, err := c.solve(-1)
			if err != nil {
				t.Fatal(err)
			}
			sameSolution(t, c.build(), got, want)

			// Every pivot of the first two refactorization intervals — no
			// case hands over later than that — then a sample, then the
			// last but one.
			for stop := 0; stop < max(total, 1); stop++ {
				if stop > 2*reinvertEvery && stop < total-1 && stop%reinvertEvery != 1 {
					continue
				}
				sol, pivots, err := c.solve(stop)
				if sol != nil || !errors.Is(err, ErrInterrupted) {
					t.Fatalf("closed after pivot %d of %d: solution %v, error %v; want none and ErrInterrupted", stop, total, sol, err)
				}
				if pivots != stop {
					t.Fatalf("closed after pivot %d: the solve took %d", stop, pivots)
				}
			}
			if total == 0 {
				return
			}
			// Closed once the last pivot is taken, all that can be left is
			// an exact install of the final basis, which polls too: the
			// solve stops there or answers what it would have unstopped.
			if err := c.cutShort(total, want); err != nil {
				t.Fatal(err)
			}
		})
	}
}
