package repro

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/pkg/steady/lp"
	"repro/pkg/steady/platform"
	simpkg "repro/pkg/steady/sim"
)

// lpCounts is what the LP benchmarks of bench_test.go report beside
// their time: exact, float and repair pivots, and whether a solve fell
// back from its float search to the exact walk.
type lpCounts struct {
	Pivots, FloatPivots, RepairPivots int
	Fallback                          bool
	// MaxFloatPivots is the longest float walk of a row that solves a
	// family of platforms; FloatPivots is then the family's total.
	MaxFloatPivots int
}

func countsOf(info lp.SolveInfo) lpCounts {
	return lpCounts{Pivots: info.Pivots, FloatPivots: info.FloatPivots, RepairPivots: info.RepairPivots, Fallback: info.CertifiedCold}
}

// TestLPPivotCounts pins those counts. They are functions of the
// platform seeds and the (deterministic) pivot rule, not of the machine:
// properties of the algorithm, so a test holds them — exactly, on the
// benchmarks' own fixtures — and a time is only ever read off bench/. A
// change that moves one is a bug, or a deliberate change of rule or
// formulation that re-records the row here in the same PR (ROADMAP
// item 3's golden protocol).
func TestLPPivotCounts(t *testing.T) {
	figure1 := simBenchResult(t)
	family := func() (lpCounts, error) {
		pivots, err := familyPivots(warmFamily())
		return lpCounts{Pivots: pivots}, err
	}
	masterSlave := func(p *platform.Platform, opts *lp.Options) func() (lpCounts, error) {
		return func() (lpCounts, error) {
			ms, err := core.SolveMasterSlavePortOpts(p, 0, core.SendAndReceive, opts)
			if err != nil {
				return lpCounts{}, err
			}
			return countsOf(ms.LP), nil
		}
	}
	// coldMissFamily solves every platform of BenchmarkLPColdMiss48
	// without a hint: the tail of the float walk a served miss pays,
	// which one platform's count cannot show.
	coldMissFamily := func() (lpCounts, error) {
		var sum lpCounts
		for i := 0; i < coldMiss48Family; i++ {
			got, err := masterSlave(coldMiss48Platform(i), nil)()
			if err != nil {
				return lpCounts{}, err
			}
			sum.Pivots += got.Pivots
			sum.FloatPivots += got.FloatPivots
			sum.RepairPivots += got.RepairPivots
			sum.Fallback = sum.Fallback || got.Fallback
			sum.MaxFloatPivots = max(sum.MaxFloatPivots, got.FloatPivots)
		}
		return sum, nil
	}
	collective := func(n int, solve collectiveSolve) func() (lpCounts, error) {
		return func() (lpCounts, error) {
			sc, err := solve(collectivePlatform(n), 0, nil)
			if err != nil {
				return lpCounts{}, err
			}
			return countsOf(sc.LP), nil
		}
	}
	for _, row := range []struct {
		name string
		slow bool // an n=48 collective: 0.2 s (4 s under the race detector)
		want lpCounts
		run  func() (lpCounts, error)
	}{
		// Every LP here has only zero right-hand sides on its GE/EQ rows,
		// so every cold solve starts from the crash basis, not phase 1.
		// Eight solves: 2 pivots per solve, float and exact together,
		// every one of them float: the certificate repairs nothing here.
		{"LPColdVsWarm/Cold", false, lpCounts{Pivots: 16}, family},
		{"LPFloatFirstCold/FloatFirst", false, lpCounts{FloatPivots: 3}, masterSlave(randomPlatform(100), nil)},
		// The benchmark's first solve (-benchtime=1x): platform 0, no hint.
		{"LPColdMiss48", false, lpCounts{FloatPivots: 2}, masterSlave(coldMiss48Platform(0), nil)},
		{"LPColdMiss48/Family", false, lpCounts{FloatPivots: 244, MaxFloatPivots: 34}, coldMissFamily},
		{"LPColdBroadcast24", false, lpCounts{FloatPivots: 34}, collective(24, core.SolveBroadcastBoundOpts)},
		{"LPColdBroadcast48", true, lpCounts{FloatPivots: 71}, collective(48, core.SolveBroadcastBoundOpts)},
		{"LPColdReduce24", false, lpCounts{FloatPivots: 45}, collective(24, core.SolveReduceBoundOpts)},
		{"LPColdReduce48", true, lpCounts{FloatPivots: 311}, collective(48, core.SolveReduceBoundOpts)},
		// 0 exact pivots over the run's drift re-solves, of which there
		// must be some: 4 (3 solves, and one cache hit when the slowdown
		// ends and the estimate returns to the nominal platform).
		{"SimAdaptiveWarm", false, lpCounts{}, func() (lpCounts, error) {
			rep, err := simpkg.New(simpkg.Config{}).Run(context.Background(), figure1, adaptiveWarmScenario)
			if err != nil {
				return lpCounts{}, err
			}
			if rep.Resolves == 0 {
				t.Error("the adaptive scenario never re-solved")
			}
			return lpCounts{Pivots: int(rep.LPPivots)}, nil
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			if row.slow && testing.Short() {
				t.Skip("n=48 collective: skipped under -short")
			}
			if got, err := row.run(); err != nil {
				t.Fatal(err)
			} else if got != row.want {
				t.Fatalf("Benchmark%s counts %+v, want %+v", row.name, got, row.want)
			}
		})
	}
}
