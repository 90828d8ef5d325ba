package sim

import (
	"context"
	"errors"
	"math/big"
	"strings"
	"testing"
	"time"

	"repro/pkg/steady"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

func solveOn(t *testing.T, spec steady.Spec, p *platform.Platform) *steady.Result {
	t.Helper()
	solver, err := steady.New(spec)
	if err != nil {
		t.Fatalf("New(%+v): %v", spec, err)
	}
	res, err := solver.Solve(context.Background(), p)
	if err != nil {
		t.Fatalf("Solve(%s): %v", solver.Name(), err)
	}
	return res
}

// star returns a one-level master/worker platform on which the
// multicast max-operator bound is achievable (a single tree).
func star(workers int) *platform.Platform {
	ws := make([]platform.Weight, workers)
	cs := make([]rat.Rat, workers)
	for i := range ws {
		ws[i] = platform.WInt(int64(i + 1))
		cs[i] = rat.FromInt(1)
	}
	return platform.Star(platform.WInt(1), ws, cs)
}

// funnel returns the reverse of a star: workers with direct links
// into a root, the natural reduce platform.
func funnel(workers int) *platform.Platform {
	return star(workers).Reverse()
}

// TestAsymptoticOptimalityAllSolvers is the acceptance test of the
// simulation subsystem: for every registered problem, replaying the
// reconstructed (or companion) schedule on a sample platform achieves
// at least 95% of the certified steady-state throughput within the
// automatically-sized horizon, with a startup transient bounded by
// the platform size.
func TestAsymptoticOptimalityAllSolvers(t *testing.T) {
	fig1 := platform.Figure1()
	fig2 := platform.Figure2()
	cases := []struct {
		spec steady.Spec
		p    *platform.Platform
	}{
		{steady.Spec{Problem: "masterslave", Root: "P1"}, fig1},
		{steady.Spec{Problem: "scatter", Root: "P1", Targets: []string{"P4", "P6"}}, fig1},
		{steady.Spec{Problem: "multicast-sum", Root: "P0", Targets: []string{"P5", "P6"}}, fig2},
		{steady.Spec{Problem: "multicast-trees", Root: "P0", Targets: []string{"P5", "P6"}}, fig2},
		{steady.Spec{Problem: "multicast", Root: "P0", Targets: []string{"P1", "P2", "P3"}}, star(3)},
		{steady.Spec{Problem: "broadcast", Root: "P0"}, fig2},
		{steady.Spec{Problem: "reduce", Root: "P0"}, funnel(3)},
	}

	covered := map[string]bool{}
	eng := New(Config{})
	for _, c := range cases {
		c := c
		t.Run(c.spec.Problem, func(t *testing.T) {
			covered[c.spec.Problem] = true
			res := solveOn(t, c.spec, c.p)
			rep, err := eng.Run(context.Background(), res, Scenario{})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if rep.Kind != "periodic" {
				t.Fatalf("kind = %q, want periodic", rep.Kind)
			}
			if rep.RatioValue < 0.95 {
				t.Errorf("optimality ratio %v (%s) < 0.95 after %d periods",
					rep.Ratio, rep.Achieved, rep.Periods)
			}
			if rep.SteadyAfter < 0 {
				t.Errorf("steady state never sustained (ratio %s)", rep.Ratio)
			}
			if n := int64(c.p.NumNodes()); rep.SteadyAfter > n {
				t.Errorf("transient %d periods > platform size %d", rep.SteadyAfter, n)
			}
			if rep.Periods <= 0 || rep.Ops == "" || rep.Period == "" {
				t.Errorf("incomplete report: %+v", rep)
			}
		})
	}
	for _, problem := range steady.Problems() {
		if !covered[problem] {
			t.Errorf("registered problem %s not covered by the optimality table", problem)
		}
	}
}

// TestReplayMatchesInternalSimulator: every problem with a schedule
// of its own simulates through Schedule.Simulate, and that agrees with
// the engine's periodic replay of the same result on total operations
// and on the period steady state begins.
func TestReplayMatchesInternalSimulator(t *testing.T) {
	f1, f2 := platform.Figure1(), platform.Figure2()
	// perPeriod is how many TasksPerPeriod() one steady period
	// completes: one per target for the per-target message shapes.
	cases := []struct {
		spec      steady.Spec
		p         *platform.Platform
		perPeriod int64
	}{
		{steady.Spec{Problem: "masterslave", Root: "P1"}, f1, 1},
		{steady.Spec{Problem: "scatter", Root: "P1", Targets: []string{"P4", "P5"}}, f1, 2},
		{steady.Spec{Problem: "multicast-sum", Root: "P1", Targets: []string{"P4", "P5"}}, f1, 2},
		{steady.Spec{Problem: "multicast-trees", Root: "P0", Targets: []string{"P5", "P6"}}, f2, 1},
	}
	for _, tc := range cases {
		t.Run(tc.spec.Problem, func(t *testing.T) {
			res := solveOn(t, tc.spec, tc.p)
			sched, err := res.Reconstruct()
			if err != nil {
				t.Fatal(err)
			}
			const periods = 200
			simu, err := sched.Simulate(periods)
			if err != nil {
				t.Fatal(err)
			}
			internalTotal := new(big.Int)
			for _, d := range simu.DonePerPeriod {
				internalTotal.Add(internalTotal, d)
			}

			rep, err := New(Config{}).Run(context.Background(), res, Scenario{Periods: periods})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Ops != internalTotal.String() {
				t.Errorf("replay ops %s != internal simulator %s over %d periods",
					rep.Ops, internalTotal, periods)
			}
			if rep.SteadyAfter != simu.SteadyAfter {
				t.Errorf("replay steady after %d != internal %d", rep.SteadyAfter, simu.SteadyAfter)
			}
			if internalTotal.Sign() <= 0 || simu.SteadyAfter < 0 {
				t.Fatalf("schedule did no work (%v ops) or never reached steady state (%d)", internalTotal, simu.SteadyAfter)
			}
			want := new(big.Int).Mul(sched.TasksPerPeriod(), big.NewInt(tc.perPeriod))
			for p := simu.SteadyAfter; p < int64(len(simu.DonePerPeriod)); p++ {
				if d := simu.DonePerPeriod[p]; d.Cmp(want) != 0 {
					t.Fatalf("steady period %d completes %v, want %d x TasksPerPeriod() = %v",
						p, d, tc.perPeriod, want)
				}
			}
		})
	}
}

// TestMulticastGapReported verifies the engine reports the §4.3
// multicast gap honestly: on Figure 2 the max-operator bound is
// unachievable, so the replayed companion packing must land strictly
// below it while still sustaining its own schedule.
func TestMulticastGapReported(t *testing.T) {
	p := platform.Figure2()
	res := solveOn(t, steady.Spec{Problem: "multicast", Root: "P0", Targets: []string{"P5", "P6"}}, p)
	rep, err := New(Config{}).Run(context.Background(), res, Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Derived != "multicast-trees" {
		t.Fatalf("derived = %q, want multicast-trees", rep.Derived)
	}
	if rep.RatioValue >= 1 {
		t.Errorf("Figure 2 gap not reported: ratio %s", rep.Ratio)
	}
	if rep.SteadyAfter < 0 {
		t.Errorf("companion schedule never reached steady state")
	}
}

func TestGreedySendOrReceive(t *testing.T) {
	res := solveOn(t, steady.Spec{Problem: "masterslave", Root: "P1", Model: steady.SendOrReceive},
		platform.Figure1())
	rep, err := New(Config{}).Run(context.Background(), res, Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != "greedy" {
		t.Fatalf("kind = %q, want greedy", rep.Kind)
	}
	if rep.RatioValue <= 0 || rep.RatioValue > 1 {
		t.Errorf("greedy ratio %v outside (0, 1]", rep.RatioValue)
	}
}

func TestDynamicScenarioSlowdown(t *testing.T) {
	res := solveOn(t, steady.Spec{Problem: "masterslave", Root: "P1"}, platform.Figure1())
	eng := New(Config{})
	sc := Scenario{
		Name:      "p2-slow",
		Tasks:     500,
		Slowdowns: []Slowdown{{Node: "P2", Factor: 3, From: 10, Until: 100}},
	}
	rep, err := eng.Run(context.Background(), res, sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != "online" {
		t.Fatalf("kind = %q, want online", rep.Kind)
	}
	if rep.Done != 500 {
		t.Errorf("done = %d, want 500", rep.Done)
	}
	if rep.Makespan <= 0 || rep.AchievedValue <= 0 {
		t.Errorf("empty dynamic report: %+v", rep)
	}
	// A slowdown cannot beat the certified rate on the nominal
	// platform by more than rounding.
	if rep.RatioValue > 1.05 {
		t.Errorf("dynamic ratio %v implausibly above certified", rep.RatioValue)
	}
}

func TestDynamicAdaptiveResolves(t *testing.T) {
	res := solveOn(t, steady.Spec{Problem: "masterslave", Root: "P1"}, platform.Figure1())
	sc := Scenario{
		Tasks:       400,
		Adaptive:    true,
		EpochLength: 20,
		NodeLoad: map[string]TraceSpec{
			"P4": {Kind: "random-walk", Horizon: 2000, Step: 50, Lo: 1, Hi: 3},
		},
		Seed: 7,
	}
	rep, err := New(Config{}).Run(context.Background(), res, sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resolves < 1 {
		t.Errorf("adaptive run recorded %d LP re-solves, want >= 1", rep.Resolves)
	}
	if rep.Done != 400 {
		t.Errorf("done = %d, want 400", rep.Done)
	}
}

// TestDynamicSeedDeterminism pins the "same seed, same scenario"
// contract: random-walk traces are assigned to resources in sorted
// key order, so Go's randomized map iteration cannot shuffle which
// resource gets which walk between runs.
func TestDynamicSeedDeterminism(t *testing.T) {
	res := solveOn(t, steady.Spec{Problem: "masterslave", Root: "P1"}, platform.Figure1())
	eng := New(Config{})
	walk := TraceSpec{Kind: "random-walk", Horizon: 1000, Step: 20, Lo: 1, Hi: 3}
	sc := Scenario{
		Tasks: 400,
		Seed:  11,
		NodeLoad: map[string]TraceSpec{
			"P2": walk, "P3": walk, "P4": walk, "P5": walk, "P6": walk,
		},
		EdgeLoad: map[string]TraceSpec{
			EdgeKey("P1", "P2"): walk, EdgeKey("P2", "P4"): walk, EdgeKey("P2", "P5"): walk,
		},
	}
	first, err := eng.Run(context.Background(), res, sc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := eng.Run(context.Background(), res, sc)
		if err != nil {
			t.Fatal(err)
		}
		if again.Makespan != first.Makespan || again.Done != first.Done {
			t.Fatalf("run %d diverged: makespan %v vs %v, done %d vs %d",
				i, again.Makespan, first.Makespan, again.Done, first.Done)
		}
	}
}

// TestDynamicTimeoutInterrupts pins the dynamic path's timeout
// contract: the event simulator aborts through OnlineConfig.Interrupt
// and Run surfaces the context's error (the server maps it to 504).
func TestDynamicTimeoutInterrupts(t *testing.T) {
	res := solveOn(t, steady.Spec{Problem: "masterslave", Root: "P1"}, platform.Figure1())
	eng := New(Config{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := eng.Run(ctx, res, Scenario{Tasks: 100000})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("interrupt took %v, simulator did not stop promptly", elapsed)
	}
}

// TestDynamicRequiresMasterSlave refuses a dynamic scenario on a
// result without per-node compute rates. The broadcast row runs under
// an already-cancelled context: it gets the refusal, not
// context.Canceled, so the check precedes the replay (whose companion
// tree packing would be solved only to be refused).
func TestDynamicRequiresMasterSlave(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		ctx  context.Context
		spec steady.Spec
		p    *platform.Platform
	}{
		{"scatter", context.Background(),
			steady.Spec{Problem: "scatter", Root: "P1", Targets: []string{"P4"}}, platform.Figure1()},
		{"broadcast-cancelled", cancelled,
			steady.Spec{Problem: "broadcast", Root: "P0"}, platform.Figure2()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := solveOn(t, c.spec, c.p)
			_, err := New(Config{}).Run(c.ctx, res, Scenario{Tasks: 10})
			if err == nil || !strings.Contains(err.Error(), "masterslave") {
				t.Errorf("expected masterslave-only error, got %v", err)
			}
		})
	}
}

func TestScenarioValidation(t *testing.T) {
	bad := []Scenario{
		{Periods: -1},
		{NodeLoad: map[string]TraceSpec{"P1": {Kind: "constant", Value: 0}}},
		{NodeLoad: map[string]TraceSpec{"P1": {Kind: "steps", Times: []float64{1, 2}, Mult: []float64{1, 2}}}},
		{NodeLoad: map[string]TraceSpec{"P1": {Kind: "steps", Times: []float64{0, 0}, Mult: []float64{1, 2}}}},
		{NodeLoad: map[string]TraceSpec{"P1": {Kind: "random-walk", Horizon: 0, Step: 1, Lo: 1, Hi: 2}}},
		{NodeLoad: map[string]TraceSpec{"P1": {Kind: "wat"}}},
		{EdgeLoad: map[string]TraceSpec{"nope": {Kind: "constant", Value: 2}}},
		{Slowdowns: []Slowdown{{Factor: 2}}},
		{Slowdowns: []Slowdown{{Node: "P1", Edge: "P1->P2", Factor: 2}}},
		{Slowdowns: []Slowdown{{Node: "P1", Factor: 0}}},
		{Slowdowns: []Slowdown{{Node: "P1", Factor: 2, From: 10, Until: 5}}},
		{Slowdowns: []Slowdown{{Node: "P1", Factor: 2}, {Node: "P1", Factor: 3}}},
		{Slowdowns: []Slowdown{{Edge: "P1->P2", Factor: 2}, {Edge: "P1->P2", Factor: 3}}},
	}
	for i, sc := range bad {
		if err := sc.Validate(); err == nil {
			t.Errorf("scenario %d unexpectedly valid: %+v", i, sc)
		}
	}
	good := Scenario{
		Periods: 10,
		NodeLoad: map[string]TraceSpec{
			"P1": {Value: 2},
			"P2": {Kind: "steps", Times: []float64{0, 5}, Mult: []float64{1, 2}},
		},
		EdgeLoad:  map[string]TraceSpec{EdgeKey("P1", "P2"): {Kind: "random-walk", Horizon: 100, Step: 10, Lo: 1, Hi: 2}},
		Slowdowns: []Slowdown{{Edge: "P2->P4", Factor: 4, From: 1, Until: 2}},
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid scenario rejected: %v", err)
	}
}

func TestDynamicUnknownResources(t *testing.T) {
	res := solveOn(t, steady.Spec{Problem: "masterslave", Root: "P1"}, platform.Figure1())
	eng := New(Config{})
	for _, sc := range []Scenario{
		{Tasks: 10, NodeLoad: map[string]TraceSpec{"PX": {Value: 2}}},
		{Tasks: 10, EdgeLoad: map[string]TraceSpec{"P1->PX": {Value: 2}}},
		{Tasks: 10, EdgeLoad: map[string]TraceSpec{"P4->P6": {Value: 2}}}, // no such link
	} {
		if _, err := eng.Run(context.Background(), res, sc); err == nil {
			t.Errorf("scenario %+v unexpectedly ran", sc)
		}
	}
}

func TestBundleRoundTrip(t *testing.T) {
	p := platform.Figure1()
	sc := Scenario{
		Name:     "bundled",
		NodeLoad: map[string]TraceSpec{"P2": {Kind: "random-walk", Horizon: 200, Step: 20, Lo: 1, Hi: 3}},
	}
	var buf strings.Builder
	if err := WriteBundle(&buf, p, sc); err != nil {
		t.Fatal(err)
	}
	q, got, err := ReadBundle(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if q.NumNodes() != p.NumNodes() || q.NumEdges() != p.NumEdges() {
		t.Errorf("platform did not round-trip: %d/%d nodes, %d/%d edges",
			q.NumNodes(), p.NumNodes(), q.NumEdges(), p.NumEdges())
	}
	if got.Name != sc.Name || len(got.NodeLoad) != 1 {
		t.Errorf("scenario did not round-trip: %+v", got)
	}
}

// TestSlowdownSpec pins the slowdown-to-steps conversion feeding the
// event simulator.
func TestSlowdownSpec(t *testing.T) {
	tr, err := Slowdown{Node: "X", Factor: 4, From: 10, Until: 20}.spec().trace(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ t, want float64 }{{0, 1}, {9, 1}, {10, 4}, {19, 4}, {20, 1}, {100, 1}} {
		if got := tr.At(c.t); got != c.want {
			t.Errorf("slowdown At(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	// From = 0, no Until: slowed forever.
	tr2, err := Slowdown{Node: "X", Factor: 2}.spec().trace(nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.At(0) != 2 || tr2.At(1e6) != 2 {
		t.Errorf("permanent slowdown not flat: %v %v", tr2.At(0), tr2.At(1e6))
	}
}
