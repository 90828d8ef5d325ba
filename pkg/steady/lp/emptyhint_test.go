package lp_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/pkg/steady/lp"
	"repro/pkg/steady/obs"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

// served is what TestEmptyWarmHintFallsBackCold reads off a solve of a
// registered problem's LP.
type served struct {
	tp    rat.Rat
	basis *lp.Basis
	warm  bool
}

// flow adapts a commodity-flow solve to a row of the test.
func flow(solve func(*lp.Options) (*core.Scatter, error)) func(*lp.Options) (served, error) {
	return func(o *lp.Options) (served, error) {
		sc, err := solve(o)
		if err != nil {
			return served{}, err
		}
		return served{sc.Throughput, sc.Basis, sc.LP.WarmStarted}, nil
	}
}

// TestEmptyWarmHintFallsBackCold: a hint with a served LP's own
// dimensions and no entries leaves every row to padding, and the
// collectives' equality rows once let the padded pass call a solvable
// LP unbounded ("core: commodity-flow LP unbounded"). On the LP of
// every registered problem the hint must be turned away, counted as a
// warm_reject, and the cold solve's optimum served.
func TestEmptyWarmHintFallsBackCold(t *testing.T) {
	p := platform.RandomConnected(rand.New(rand.NewSource(104)), 8, 8, 5, 5, 0.15)
	targets := []int{1, 2, 3}
	for _, c := range []struct {
		problem string
		solve   func(*lp.Options) (served, error)
	}{
		{"masterslave", func(o *lp.Options) (served, error) {
			ms, err := core.SolveMasterSlavePortOpts(p, 0, core.SendAndReceive, o)
			if err != nil {
				return served{}, err
			}
			return served{ms.Throughput, ms.Basis, ms.LP.WarmStarted}, nil
		}},
		{"scatter", flow(func(o *lp.Options) (*core.Scatter, error) {
			return core.SolveScatterPortOpts(p, 0, targets, core.SendAndReceive, o)
		})},
		{"multicast", flow(func(o *lp.Options) (*core.Scatter, error) { return core.SolveMulticastBoundOpts(p, 0, targets, o) })},
		{"broadcast", flow(func(o *lp.Options) (*core.Scatter, error) { return core.SolveBroadcastBoundOpts(p, 0, o) })},
		{"reduce", flow(func(o *lp.Options) (*core.Scatter, error) { return core.SolveReduceBoundOpts(p, 0, o) })},
	} {
		cold, err := c.solve(nil)
		if err != nil {
			t.Fatalf("%s: cold: %v", c.problem, err)
		}
		reg := obs.New()
		hinted, err := c.solve(&lp.Options{WarmBasis: lp.EmptyHint(cold.basis), Obs: reg})
		if err != nil {
			t.Fatalf("%s: empty hint: %v", c.problem, err)
		}
		if !hinted.tp.Equal(cold.tp) {
			t.Fatalf("%s: throughput %v under an empty hint, %v cold", c.problem, hinted.tp, cold.tp)
		}
		// masterslave's variables are all range-bounded, so its padded
		// pass has no ray to find and may legitimately run warm.
		if c.problem == "masterslave" {
			continue
		}
		var metrics strings.Builder
		if err := reg.WritePrometheus(&metrics); err != nil {
			t.Fatal(err)
		}
		if hinted.warm || !strings.Contains(metrics.String(), `steady_lp_fallbacks_total{kind="warm_reject"} 1`) {
			t.Fatalf("%s: empty hint not counted as a warm_reject (warm started %v)", c.problem, hinted.warm)
		}
	}
}
