package event_test

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/schedule"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
	"repro/pkg/steady/sim/event"
)

func mustPeriodic(t *testing.T, p *platform.Platform, master int) *schedule.Periodic {
	t.Helper()
	ms, err := core.SolveMasterSlave(p, master)
	if err != nil {
		t.Fatal(err)
	}
	per, err := schedule.Reconstruct(ms)
	if err != nil {
		t.Fatal(err)
	}
	return per
}

func mustSpec(t *testing.T, per *schedule.Periodic) *event.PeriodicSpec {
	t.Helper()
	spec := &event.PeriodicSpec{Platform: per.P, Commodities: per.Commodities}
	return spec
}

func TestPeriodicSimReachesSteadyState(t *testing.T) {
	p := platform.Figure1()
	master := p.NodeByName("P1")
	per := mustPeriodic(t, p, master)
	stats, err := event.RunPeriodic(mustSpec(t, per), 30, event.PeriodicOptions{PerPeriod: true})
	if err != nil {
		t.Fatal(err)
	}
	depth := int64(p.MaxDepthFrom(master))
	if stats.SteadyAfter < 0 {
		t.Fatal("steady state never reached")
	}
	if stats.SteadyAfter > depth {
		t.Fatalf("steady state after %d periods, want <= depth %d (§4.2)", stats.SteadyAfter, depth)
	}
	// After steady state every period completes exactly OpsPerPeriod.
	for pd := stats.SteadyAfter; pd < 30; pd++ {
		if stats.DonePerPeriod[pd].Cmp(per.OpsPerPeriod) != 0 {
			t.Fatalf("period %d did %v tasks, want %v", pd, stats.DonePerPeriod[pd], per.OpsPerPeriod)
		}
	}
	// Cold start can never beat the steady-state bound.
	bound := new(big.Int).Mul(per.OpsPerPeriod, big.NewInt(30))
	if stats.Ops.Cmp(bound) > 0 {
		t.Fatalf("simulation %v beats the steady-state bound %v", stats.Ops, bound)
	}
}

func TestPeriodicSimRandomPlatforms(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 8; trial++ {
		p := platform.RandomConnected(rng, 4+rng.Intn(4), rng.Intn(5), 4, 4, 0.1)
		per := mustPeriodic(t, p, 0)
		stats, err := event.RunPeriodic(mustSpec(t, per), 25, event.PeriodicOptions{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if stats.SteadyAfter < 0 || stats.SteadyAfter > int64(p.NumNodes()) {
			t.Fatalf("trial %d: steady after %d periods (p=%d nodes)",
				trial, stats.SteadyAfter, p.NumNodes())
		}
	}
}

// TestAsymptoticOptimality is the §4.2 theorem in executable form:
// makespan(n)/LB(n) -> 1 and the absolute loss (in periods) is a
// constant independent of n.
func TestAsymptoticOptimality(t *testing.T) {
	p := platform.Figure1()
	master := p.NodeByName("P1")
	per := mustPeriodic(t, p, master)
	spec := mustSpec(t, per)

	depth := int64(p.MaxDepthFrom(master))
	var prevRatio float64 = math.Inf(1)
	for _, nTasks := range []int64{100, 1000, 10000, 100000} {
		n := big.NewInt(nTasks)
		periods, err := event.RunUntil(spec, n, event.PeriodicOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Absolute loss: at most depth+1 extra periods over the fluid
		// lower bound ceil(n / tasksPerPeriod).
		lbPeriods := new(big.Int).Add(n, new(big.Int).Sub(per.OpsPerPeriod, big.NewInt(1)))
		lbPeriods.Div(lbPeriods, per.OpsPerPeriod)
		loss := periods - lbPeriods.Int64()
		if loss < 0 {
			t.Fatalf("n=%d: makespan beats lower bound", nTasks)
		}
		if loss > depth+1 {
			t.Fatalf("n=%d: loss %d periods exceeds depth+1 = %d (not a constant)", nTasks, loss, depth+1)
		}
		// Ratio to the time lower bound n/ntask decreases toward 1.
		T := new(big.Rat).SetInt(per.Period)
		makespan, _ := new(big.Rat).Mul(T, new(big.Rat).SetInt64(periods)).Float64()
		lb := float64(nTasks) / per.Throughput.Float64()
		ratio := makespan / lb
		if ratio < 1-1e-9 {
			t.Fatalf("n=%d: ratio %v < 1", nTasks, ratio)
		}
		if ratio > prevRatio+1e-9 {
			t.Fatalf("n=%d: ratio %v increased from %v", nTasks, ratio, prevRatio)
		}
		prevRatio = ratio
	}
	if prevRatio > 1.001 {
		t.Fatalf("ratio at n=100000 still %v, not converging to 1", prevRatio)
	}
}

func TestRunUntilErrors(t *testing.T) {
	p := platform.Figure1()
	per := mustPeriodic(t, p, 0)
	spec := mustSpec(t, per)
	bad := *spec
	bad.Commodities = append([]event.Commodity(nil), spec.Commodities...)
	bad.Commodities[0].Quota = big.NewInt(0)
	if _, err := event.RunUntil(&bad, big.NewInt(10), event.PeriodicOptions{}); err == nil {
		t.Fatal("expected error for broken schedule")
	}
}

// fcfsPolicy serves pending requests in arrival order.
type fcfsPolicy struct{}

func (fcfsPolicy) Pick(from int, pending []int, st *event.OnlineState) int { return 0 }
func (fcfsPolicy) Name() string                                            { return "fcfs" }

func TestOnlineStarCompletesAllTasks(t *testing.T) {
	p := platform.Star(platform.WInt(5),
		[]platform.Weight{platform.WInt(2), platform.WInt(3)},
		[]rat.Rat{rat.One(), rat.One()})
	tree, err := event.ShortestPathTree(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := event.RunOnlineMasterSlave(event.OnlineConfig{
		Platform: p, Tree: tree, Master: 0, Tasks: 200, Policy: fcfsPolicy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != 200 {
		t.Fatalf("done = %d, want 200", res.Done)
	}
	sum := 0
	for _, d := range res.PerNode {
		sum += d
	}
	if sum != 200 {
		t.Fatalf("per-node sum %d != 200", sum)
	}
	if res.Makespan <= 0 {
		t.Fatal("no time elapsed")
	}
}

func TestOnlineNeverBeatsSteadyStateBound(t *testing.T) {
	// On any platform the online greedy cannot beat n / ntask(G)
	// asymptotically — the "why" of the paper. Allow ramp-up slack.
	p := platform.Figure1()
	master := p.NodeByName("P1")
	ms, err := core.SolveMasterSlave(p, master)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := event.ShortestPathTree(p, master)
	if err != nil {
		t.Fatal(err)
	}
	const tasks = 2000
	res, err := event.RunOnlineMasterSlave(event.OnlineConfig{
		Platform: p, Tree: tree, Master: master, Tasks: tasks, Policy: fcfsPolicy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	lb := float64(tasks) / ms.Throughput.Float64()
	if res.Makespan < lb*0.999 {
		t.Fatalf("online makespan %v beats the steady-state lower bound %v", res.Makespan, lb)
	}
	t.Logf("online fcfs: makespan %.1f vs steady-state bound %.1f (ratio %.3f)",
		res.Makespan, lb, res.Makespan/lb)
}

func TestOnlineHorizonMode(t *testing.T) {
	p := platform.Star(platform.WInt(2),
		[]platform.Weight{platform.WInt(2)}, []rat.Rat{rat.One()})
	tree, _ := event.ShortestPathTree(p, 0)
	res, err := event.RunOnlineMasterSlave(event.OnlineConfig{
		Platform: p, Tree: tree, Master: 0, Horizon: 100, Policy: fcfsPolicy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both unit-ish nodes work near full rate: about 100 tasks total
	// (master w=2 -> 50, worker w=2 -> ~50 minus pipeline fill).
	if res.Done < 90 || res.Done > 110 {
		t.Fatalf("done = %d, want ~100", res.Done)
	}
}

func TestOnlineWithLoadTraces(t *testing.T) {
	// Slowing the worker's link by 4x must reduce its completed count.
	p := platform.Star(platform.WInt(100),
		[]platform.Weight{platform.WInt(1)}, []rat.Rat{rat.One()})
	tree, _ := event.ShortestPathTree(p, 0)
	base, err := event.RunOnlineMasterSlave(event.OnlineConfig{
		Platform: p, Tree: tree, Master: 0, Horizon: 200, Policy: fcfsPolicy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	slowed, err := event.RunOnlineMasterSlave(event.OnlineConfig{
		Platform: p, Tree: tree, Master: 0, Horizon: 200, Policy: fcfsPolicy{},
		EdgeLoad: []*event.LoadTrace{event.ConstantLoad(4)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if slowed.PerNode[1] >= base.PerNode[1] {
		t.Fatalf("slowed link did not reduce worker tasks: %d vs %d",
			slowed.PerNode[1], base.PerNode[1])
	}
}

func TestOnlineEpochObservations(t *testing.T) {
	p := platform.Star(platform.WInt(2),
		[]platform.Weight{platform.WInt(2)}, []rat.Rat{rat.One()})
	tree, _ := event.ShortestPathTree(p, 0)
	var epochs int
	var lastW float64
	_, err := event.RunOnlineMasterSlave(event.OnlineConfig{
		Platform: p, Tree: tree, Master: 0, Horizon: 100, Policy: fcfsPolicy{},
		EpochLength: 10,
		OnEpoch: func(now float64, obs *event.EpochObservation) {
			epochs++
			if obs.EffectiveW[1] > 0 {
				lastW = obs.EffectiveW[1]
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if epochs < 8 {
		t.Fatalf("epochs = %d, want ~10", epochs)
	}
	// Observed seconds/task at the worker should be close to w=2.
	if lastW < 1.5 || lastW > 2.5 {
		t.Fatalf("observed w = %v, want ~2", lastW)
	}
}

func TestOnlineConfigErrors(t *testing.T) {
	p := platform.Figure1()
	tree, _ := event.ShortestPathTree(p, 0)
	if _, err := event.RunOnlineMasterSlave(event.OnlineConfig{Platform: p, Tree: tree, Master: -1, Tasks: 1, Policy: fcfsPolicy{}}); err == nil {
		t.Fatal("expected bad-master error")
	}
	if _, err := event.RunOnlineMasterSlave(event.OnlineConfig{Platform: p, Tree: tree[:2], Master: 0, Tasks: 1, Policy: fcfsPolicy{}}); err == nil {
		t.Fatal("expected tree-size error")
	}
	if _, err := event.RunOnlineMasterSlave(event.OnlineConfig{Platform: p, Tree: tree, Master: 0, Policy: fcfsPolicy{}}); err == nil {
		t.Fatal("expected no-tasks-no-horizon error")
	}
}

func TestShortestPathTree(t *testing.T) {
	p := platform.Figure1()
	tree, err := event.ShortestPathTree(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tree[0] != -1 {
		t.Fatal("master must have no parent")
	}
	// Every non-master node's parent edge enters it; following
	// parents reaches the master.
	for v := 1; v < p.NumNodes(); v++ {
		if p.Edge(tree[v]).To != v {
			t.Fatalf("tree edge of %d does not enter it", v)
		}
		at, steps := v, 0
		for at != 0 {
			at = p.Edge(tree[at]).From
			if steps++; steps > p.NumNodes() {
				t.Fatal("parent chain does not reach master")
			}
		}
	}
	// Unreachable nodes produce an error.
	q := platform.New()
	q.AddNode("A", platform.WInt(1))
	q.AddNode("B", platform.WInt(1))
	if _, err := event.ShortestPathTree(q, 0); err == nil {
		t.Fatal("expected unreachable error")
	}
}
