// Package experiments regenerates every figure and claim of the
// paper's evaluation (see DESIGN.md §3 for the experiment index).
// Each Ek function prints the rows/series recorded in EXPERIMENTS.md;
// cmd/experiments is the CLI entry point and the root bench_test.go
// times each one.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"sort"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/divisible"
	"repro/internal/schedule"
	"repro/pkg/steady"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
	simpkg "repro/pkg/steady/sim"
	sim "repro/pkg/steady/sim/event"
)

// Registry maps experiment ids to their runners, in presentation order.
func Registry() []struct {
	ID   string
	Desc string
	Run  func(w io.Writer) error
} {
	return []struct {
		ID   string
		Desc string
		Run  func(w io.Writer) error
	}{
		{"E1", "Fig. 1 master-slave: LP, reconstruction, simulation", E1},
		{"E2", "pipelined scatter: LP + reconstruction", E2},
		{"E3", "Fig. 2/3 multicast counterexample", E3},
		{"E4", "broadcast: max-operator bound is achievable", E4},
		{"E5", "asymptotic optimality of the periodic schedule", E5},
		{"E6", "start-up costs and m-period grouping", E6},
		{"E7", "fixed-period approximation", E7},
		{"E8", "dynamic adaptation on a drifting platform", E8},
		{"E9", "send-or-receive model: bound vs greedy schedule", E9},
		{"E10", "topology discovery: naive vs probed vs true", E10},
		{"E11", "DAG collections: rate bound vs allocations", E11},
		{"E12", "reduce and personalized all-to-all", E12},
		{"E13", "steady-state vs makespan-oriented baselines", E13},
		{"E15", "divisible load: one-round vs multi-round vs bound", E15},
		{"E16", "multiport models (§5.1.2): cards vs aggregated bound", E16},
		{"E17", "multicast at scale: greedy heuristic vs LP bound ([7])", E17},
	}
}

// E1 regenerates the §3.1 result on the Figure 1 platform.
func E1(w io.Writer) error {
	p := platform.Figure1()
	master := p.NodeByName("P1")
	ms, err := core.SolveMasterSlave(p, master)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "SSMS(G) on Figure 1, master=%s\n", p.Name(master))
	fmt.Fprintf(w, "  ntask(G) = %v = %.4f tasks/time-unit\n", ms.Throughput, ms.Throughput.Float64())
	for i := 0; i < p.NumNodes(); i++ {
		fmt.Fprintf(w, "  alpha[%s] = %-8v (rate %v)\n", p.Name(i), ms.Alpha[i], ms.ComputeRate(i))
	}
	for e := 0; e < p.NumEdges(); e++ {
		if ms.S[e].Sign() > 0 {
			ed := p.Edge(e)
			fmt.Fprintf(w, "  s[%s->%s] = %v\n", p.Name(ed.From), p.Name(ed.To), ms.S[e])
		}
	}
	per, err := schedule.Reconstruct(ms)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  reconstruction: %v\n", per)
	spec, err := per.EventSpec()
	if err != nil {
		return err
	}
	stats, err := sim.RunPeriodic(spec, 20, sim.PeriodicOptions{PerPeriod: true})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  simulation: steady state after %d periods (platform depth %d)\n",
		stats.SteadyAfter, p.MaxDepthFrom(master))
	fmt.Fprintf(w, "  simulation: %v tasks per period in steady state (= T*ntask = %v)\n",
		stats.DonePerPeriod[len(stats.DonePerPeriod)-1], per.TasksPerPeriod)
	return nil
}

// E2 regenerates the §3.2 pipelined scatter result.
func E2(w io.Writer) error {
	p := platform.Figure1()
	src := p.NodeByName("P1")
	targets := []int{p.NodeByName("P4"), p.NodeByName("P5"), p.NodeByName("P6")}
	sc, err := core.SolveScatter(p, src, targets)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "SSPS(G) on Figure 1, source=%s, targets={P4,P5,P6}\n", p.Name(src))
	fmt.Fprintf(w, "  TP = %v = %.4f scatters/time-unit\n", sc.Throughput, sc.Throughput.Float64())
	sp, err := schedule.ReconstructScatter(sc)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  reconstruction: %v\n", sp)

	rng := rand.New(rand.NewSource(42))
	q := platform.RandomConnected(rng, 8, 8, 4, 4, 0.2)
	var tg []int
	for i := 1; i <= 4; i++ {
		tg = append(tg, i)
	}
	sc2, err := core.SolveScatter(q, 0, tg)
	if err != nil {
		return err
	}
	sp2, err := schedule.ReconstructScatter(sc2)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "random 8-node platform, 4 targets:\n  TP = %v; %v\n", sc2.Throughput, sp2)
	return nil
}

// E3 regenerates the Figure 2/3 multicast counterexample.
func E3(w io.Writer) error {
	p := platform.Figure2()
	src := p.NodeByName("P0")
	targets := platform.Figure2Targets(p)

	sum, err := core.SolveMulticastSum(p, src, targets)
	if err != nil {
		return err
	}
	bound, err := core.SolveMulticastBound(p, src, targets)
	if err != nil {
		return err
	}
	pack, err := core.SolveTreePacking(p, src, targets)
	if err != nil {
		return err
	}
	_, single, err := core.BestSingleTree(p, src, targets)
	if err != nil {
		return err
	}
	greedy, err := core.GreedyTreePacking(p, src, targets)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Multicast on Figure 2, source=P0, targets={P5,P6}\n")
	fmt.Fprintf(w, "  sum-LP (scatter semantics, achievable) : TP = %v\n", sum.Throughput)
	fmt.Fprintf(w, "  best single tree                       : TP = %v\n", single)
	fmt.Fprintf(w, "  greedy tree packing (heuristic, [7])   : TP = %v\n", greedy.Throughput)
	fmt.Fprintf(w, "  EXACT optimum (tree packing, %2d trees) : TP = %v\n", pack.NumTrees, pack.Throughput)
	fmt.Fprintf(w, "  max-LP bound (paper's relaxation)      : TP = %v\n", bound.Throughput)
	fmt.Fprintf(w, "  => bound %v is NOT achievable (gap %v), as §4.3 argues\n",
		bound.Throughput, bound.Throughput.Sub(pack.Throughput))
	fmt.Fprintf(w, "  optimal packing routes (cf. Figure 3(d) two-tree conflict):\n")
	for _, tr := range pack.Trees {
		fmt.Fprintf(w, "    rate %v on tree:", tr.Rate)
		for _, e := range tr.Edges {
			ed := p.Edge(e)
			fmt.Fprintf(w, " %s->%s", p.Name(ed.From), p.Name(ed.To))
		}
		fmt.Fprintln(w)
	}
	shared := core.TreeEdgeConflict(p, pack.Trees)
	for _, e := range shared {
		ed := p.Edge(e)
		fmt.Fprintf(w, "  shared edge between trees: %s->%s (c=%v)\n",
			p.Name(ed.From), p.Name(ed.To), ed.C)
	}
	return nil
}

// E4 shows the broadcast bound is met by tree packing (§4.3, [5]).
func E4(w io.Writer) error {
	type tc struct {
		name string
		p    *platform.Platform
		src  int
	}
	p2 := platform.Figure2()
	cases := []tc{{"Figure 2", p2, p2.NodeByName("P0")}}
	rng := rand.New(rand.NewSource(7))
	for len(cases) < 3 {
		q := platform.RandomConnected(rng, 5, 2, 3, 3, 0)
		if q.NumEdges() <= 14 {
			cases = append(cases, tc{fmt.Sprintf("random-%d", len(cases)), q, 0})
		}
	}
	fmt.Fprintf(w, "Broadcast: max-operator bound vs exact tree packing\n")
	for _, c := range cases {
		bound, err := core.SolveBroadcastBound(c.p, c.src)
		if err != nil {
			return err
		}
		var targets []int
		for i := 0; i < c.p.NumNodes(); i++ {
			if i != c.src {
				targets = append(targets, i)
			}
		}
		pack, err := core.SolveTreePacking(c.p, c.src, targets)
		if err != nil {
			return err
		}
		status := "ACHIEVED"
		if !pack.Throughput.Equal(bound.Throughput) {
			status = "GAP"
		}
		fmt.Fprintf(w, "  %-10s bound %-8v packing %-8v %s\n",
			c.name, bound.Throughput, pack.Throughput, status)
	}
	return nil
}

// E5 regenerates the §4.2 asymptotic-optimality series.
func E5(w io.Writer) error {
	p := platform.Figure1()
	master := p.NodeByName("P1")
	ms, err := core.SolveMasterSlave(p, master)
	if err != nil {
		return err
	}
	per, err := schedule.Reconstruct(ms)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Asymptotic optimality on Figure 1 (T=%v, %v tasks/period)\n",
		per.Period, per.TasksPerPeriod)
	spec, err := per.EventSpec()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %-10s %-10s %-12s %-10s\n", "n", "periods", "makespan", "ratio")
	for _, n := range []int64{100, 1000, 10000, 100000, 1000000} {
		periods, err := sim.RunUntil(spec, big.NewInt(n), sim.PeriodicOptions{})
		if err != nil {
			return err
		}
		T, _ := new(big.Float).SetInt(per.Period).Float64()
		makespan := float64(periods) * T
		lb := float64(n) / ms.Throughput.Float64()
		fmt.Fprintf(w, "  %-10d %-10d %-12.1f %.6f\n", n, periods, makespan, makespan/lb)
	}
	return nil
}

// E6 regenerates the §5.2 start-up-cost amortization series.
func E6(w io.Writer) error {
	p := platform.Figure1()
	ms, err := core.SolveMasterSlave(p, p.NodeByName("P1"))
	if err != nil {
		return err
	}
	per, err := schedule.Reconstruct(ms)
	if err != nil {
		return err
	}
	C := rat.FromInt(5)
	startup := func(int) rat.Rat { return C }
	fmt.Fprintf(w, "Start-up costs C=%v per communication round on Figure 1\n", C)
	fmt.Fprintf(w, "  optimum without start-ups: %v = %.4f\n", per.Throughput, per.Throughput.Float64())
	fmt.Fprintf(w, "  %-8s %-14s %-10s\n", "m", "eff.throughput", "fraction")
	for _, m := range []int64{1, 2, 4, 8, 16, 64, 256} {
		eff := per.Grouped(m).EffectiveThroughput(startup)
		fmt.Fprintf(w, "  %-8d %-14.4f %.4f\n", m, eff.Float64(),
			eff.Div(per.Throughput).Float64())
	}
	// The sqrt rule: m* = ceil(sqrt(n / ntask) / T) periods grouped.
	fmt.Fprintf(w, "  sqrt rule: for n tasks, group m ~ sqrt(n/ntask)/T periods (§5.2)\n")
	return nil
}

// E7 regenerates the §5.4 fixed-period series.
func E7(w io.Writer) error {
	p := platform.Figure1()
	ms, err := core.SolveMasterSlave(p, p.NodeByName("P1"))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Fixed-period approximation on Figure 1 (optimum %v)\n", ms.Throughput)
	fmt.Fprintf(w, "  %-8s %-14s %-10s\n", "P", "throughput", "fraction")
	for _, P := range []int64{1, 2, 3, 6, 12, 48, 192} {
		per, err := schedule.FixedPeriod(ms, P)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-8d %-14v %.4f\n", P, per.Throughput,
			per.Throughput.Div(ms.Throughput).Float64())
	}
	return nil
}

// E8 regenerates the §5.5 dynamic-adaptation comparison: demand-driven
// FCFS on the event core, then LP quotas frozen at t=0 and the §5.5
// control loop through the simulation engine, all three under the same
// drifting link loads.
func E8(w io.Writer) error {
	p := platform.Star(platform.WInt(20),
		[]platform.Weight{platform.WInt(2), platform.WInt(2), platform.WInt(3)},
		[]rat.Rat{rat.FromInt(1), rat.FromInt(1), rat.FromInt(2)})
	const horizon = 900
	// Worker 1's link runs 4x slower until t=300 and worker 2's the
	// other way around; worker 3's climbs to 3x and back.
	drift := map[string]simpkg.TraceSpec{
		simpkg.EdgeKey("P0", "P1"): {Kind: "steps", Times: []float64{0, 300}, Mult: []float64{4, 1}},
		simpkg.EdgeKey("P0", "P2"): {Kind: "steps", Times: []float64{0, 300}, Mult: []float64{1, 4}},
		simpkg.EdgeKey("P0", "P3"): {Kind: "steps",
			Times: []float64{0, 120, 240, 420, 600, 720}, Mult: []float64{1, 1.5, 2, 3, 2, 1.5}},
	}
	fmt.Fprintf(w, "Drifting 3-worker star, horizon %d\n", horizon)

	tree, err := sim.ShortestPathTree(p, 0)
	if err != nil {
		return err
	}
	edgeLoad := make([]*sim.LoadTrace, p.NumEdges())
	for e, ed := range p.Edges() {
		ts := drift[simpkg.EdgeKey(p.Name(ed.From), p.Name(ed.To))]
		edgeLoad[e] = sim.StepLoad(ts.Times, ts.Mult)
	}
	fc, err := sim.RunOnlineMasterSlave(sim.OnlineConfig{
		Platform: p, Tree: tree, Master: 0, Horizon: horizon,
		Policy: baseline.FCFS{}, EdgeLoad: edgeLoad,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %-28s %d tasks\n", "demand-driven fcfs", fc.Done)

	solver, err := steady.New(steady.Spec{Problem: "masterslave", Root: "P0"})
	if err != nil {
		return err
	}
	res, err := solver.Solve(context.Background(), p)
	if err != nil {
		return err
	}
	eng := simpkg.New(simpkg.Config{})
	sc := simpkg.Scenario{Horizon: horizon, EdgeLoad: drift, EpochLength: 60}
	st, err := eng.Run(context.Background(), res, sc)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %-28s %d tasks\n", "static LP quotas (t=0)", st.Done)

	sc.Adaptive = true
	dy, err := eng.Run(context.Background(), res, sc)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %-28s %d tasks (%d LP re-solves)\n", "adaptive (re-solve on drift)", dy.Done, dy.Resolves)
	return nil
}

// E9 regenerates the §5.1.1 send-or-receive evaluation.
func E9(w io.Writer) error {
	fmt.Fprintf(w, "Send-or-receive model (§5.1.1): LP bound vs greedy coloring\n")
	fmt.Fprintf(w, "  %-12s %-12s %-12s %-12s %-8s\n", "platform", "2-port", "1-port bound", "achieved", "slots")
	run := func(name string, p *platform.Platform, master int) error {
		base, err := core.SolveMasterSlave(p, master)
		if err != nil {
			return err
		}
		sr, err := core.SolveMasterSlavePort(p, master, core.SendOrReceive)
		if err != nil {
			return err
		}
		ev, err := schedule.EvaluateSendRecv(sr)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-12s %-12.4f %-12.4f %-12.4f %-8d\n", name,
			base.Throughput.Float64(), ev.Bound.Float64(), ev.Achieved.Float64(), ev.Slots)
		return nil
	}
	if err := run("figure1", platform.Figure1(), 0); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 3; i++ {
		p := platform.RandomConnected(rng, 6+i, 4, 4, 4, 0.1)
		if err := run(fmt.Sprintf("random-%d", i), p, 0); err != nil {
			return err
		}
	}
	return nil
}

// E10 regenerates the §5.3 topology-discovery comparison.
func E10(w io.Writer) error {
	rng := rand.New(rand.NewSource(29))
	fmt.Fprintf(w, "Topology discovery (§5.3): steady-state throughput per model\n")
	fmt.Fprintf(w, "  %-10s %-12s %-14s %-12s %-8s\n", "hidden", "naive-pings", "reconstructed", "true", "probes")
	for trial := 0; trial < 4; trial++ {
		// Hidden 2-level tree, every router with >= 2 slaves.
		p := platform.New()
		m := p.AddNode("M", platform.WInt(2+rng.Int63n(4)))
		var slaves []int
		routers := 2 + rng.Intn(2)
		for r := 0; r < routers; r++ {
			hub := p.AddNode(fmt.Sprintf("R%d", r), platform.WInf())
			p.AddEdge(m, hub, rat.FromInt(1+rng.Int63n(3)))
			kids := 2 + rng.Intn(2)
			for k := 0; k < kids; k++ {
				s := p.AddNode(fmt.Sprintf("S%d_%d", r, k), platform.WInt(1+rng.Int63n(4)))
				p.AddEdge(hub, s, rat.FromInt(1+rng.Int63n(3)))
				slaves = append(slaves, s)
			}
		}
		pr, err := discovery.NewProber(p, m, slaves)
		if err != nil {
			return err
		}
		naive := discovery.NaiveComplete(pr)
		rec, err := discovery.ReconstructTree(pr)
		if err != nil {
			return err
		}
		tMS, err := core.SolveMasterSlave(p, m)
		if err != nil {
			return err
		}
		nMS, err := core.SolveMasterSlave(naive, 0)
		if err != nil {
			return err
		}
		rMS, err := core.SolveMasterSlave(rec, rec.NodeByName("M"))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  tree-%-5d %-12.4f %-14.4f %-12.4f %-8d\n", trial,
			nMS.Throughput.Float64(), rMS.Throughput.Float64(), tMS.Throughput.Float64(), pr.Probes)
	}
	return nil
}

// E11 regenerates the §4.2 DAG-collections comparison.
func E11(w io.Writer) error {
	p := platform.New()
	a := p.AddNode("A", platform.WInt(1))
	b := p.AddNode("B", platform.WInt(2))
	c := p.AddNode("C", platform.WInt(3))
	p.AddBoth(a, b, rat.One())
	p.AddBoth(b, c, rat.FromInt(2))
	fmt.Fprintf(w, "DAG collections (§4.2) on a 3-node chain platform\n")
	fmt.Fprintf(w, "  %-12s %-14s %-14s %-8s\n", "DAG", "rate bound", "alloc achieved", "gap")
	dags := []struct {
		name string
		d    *core.DAG
	}{
		{"chain-2", core.ChainDAG(2)},
		{"chain-3", core.ChainDAG(3)},
		{"chain-4", core.ChainDAG(4)},
		{"forkjoin-2", core.ForkJoinDAG(2)},
		{"forkjoin-3", core.ForkJoinDAG(3)},
	}
	for _, dg := range dags {
		rate, err := core.SolveDAGRateBound(p, dg.d)
		if err != nil {
			return err
		}
		alloc, err := core.SolveDAGAllocation(p, dg.d)
		if err != nil {
			return err
		}
		gap := rate.Throughput.Sub(alloc.Throughput)
		fmt.Fprintf(w, "  %-12s %-14v %-14v %v\n", dg.name, rate.Throughput, alloc.Throughput, gap)
	}
	fmt.Fprintf(w, "  (rate LP = upper bound; allocations = achievable [6,4];\n")
	fmt.Fprintf(w, "   the general exact complexity is the paper's open problem)\n")
	return nil
}

// E12 regenerates the §4.2 reduce / all-to-all extensions.
func E12(w io.Writer) error {
	p := platform.Figure1()
	root := p.NodeByName("P1")
	red, err := core.SolveReduceBound(p, root)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Reduce to %s on Figure 1: TP = %v (broadcast on reversed graph)\n",
		p.Name(root), red.Throughput)

	ring := platform.New()
	for i := 0; i < 4; i++ {
		ring.AddNode(fmt.Sprintf("N%d", i), platform.WInt(1))
	}
	for i := 0; i < 4; i++ {
		ring.AddBoth(i, (i+1)%4, rat.One())
	}
	a2a, err := core.SolveAllToAll(ring, []int{0, 1, 2, 3})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Personalized all-to-all on a 4-ring: TP = %v per ordered pair\n", a2a.Throughput)
	return nil
}

// E13 regenerates the §1 motivation: steady-state vs practice.
func E13(w io.Writer) error {
	p := platform.Figure1()
	master := p.NodeByName("P1")
	ms, err := core.SolveMasterSlave(p, master)
	if err != nil {
		return err
	}
	per, err := schedule.Reconstruct(ms)
	if err != nil {
		return err
	}
	tree, err := sim.ShortestPathTree(p, master)
	if err != nil {
		return err
	}
	const n = 5000
	fmt.Fprintf(w, "%d tasks on Figure 1 (lower bound n/ntask = %.1f)\n",
		n, float64(n)/ms.Throughput.Float64())

	spec, err := per.EventSpec()
	if err != nil {
		return err
	}
	periods, err := sim.RunUntil(spec, big.NewInt(n), sim.PeriodicOptions{})
	if err != nil {
		return err
	}
	T, _ := new(big.Float).SetInt(per.Period).Float64()
	ssMakespan := float64(periods) * T
	lb := float64(n) / ms.Throughput.Float64()

	type row struct {
		name string
		mk   float64
	}
	rows := []row{{"steady-state periodic", ssMakespan}}

	for _, pol := range []sim.Policy{
		baseline.FCFS{},
		baseline.NewRoundRobin(),
		baseline.FastestFirst{},
		baseline.BandwidthCentric{Tree: tree},
	} {
		res, err := sim.RunOnlineMasterSlave(sim.OnlineConfig{
			Platform: p, Tree: tree, Master: master, Tasks: n, Policy: pol,
		})
		if err != nil {
			return err
		}
		rows = append(rows, row{"online " + pol.Name(), res.Makespan})
	}
	eft, err := baseline.ListScheduleMakespan(p, master, tree, n)
	if err != nil {
		return err
	}
	rows = append(rows, row{"offline EFT list schedule", eft})
	sort.Slice(rows, func(i, j int) bool { return rows[i].mk < rows[j].mk })
	fmt.Fprintf(w, "  %-28s %-12s %-8s\n", "scheduler", "makespan", "vs bound")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s %-12.1f %.3f\n", r.name, r.mk, r.mk/lb)
	}
	return nil
}

// E15 regenerates the divisible-load application ([8], §5.2/§6).
func E15(w io.Writer) error {
	s := &divisible.Star{
		MasterW: rat.FromInt(4),
		W:       []rat.Rat{rat.FromInt(1), rat.FromInt(2), rat.FromInt(3)},
		C:       []rat.Rat{rat.FromInt(1), rat.FromInt(1), rat.FromInt(2)},
		L:       []rat.Rat{rat.FromInt(2), rat.FromInt(2), rat.FromInt(2)},
	}
	W := rat.FromInt(300)
	rate, err := s.SteadyStateRate()
	if err != nil {
		return err
	}
	lb := W.Div(rate)
	fmt.Fprintf(w, "Divisible load W=%v on a 3-worker star (latency 2/message)\n", W)
	fmt.Fprintf(w, "  steady-state rate %v => lower bound %v = %.1f\n", rate, lb, lb.Float64())
	best, order, err := s.BestOneRound(W)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  best single round (order %v): makespan %.1f (ratio %.4f)\n",
		order, best.Float64(), best.Div(lb).Float64())
	fmt.Fprintf(w, "  %-8s %-12s %-8s\n", "rounds", "makespan", "ratio")
	for _, r := range []int{1, 2, 4, 8, 16, 32, 64} {
		m, err := s.MultiRound(W, r)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-8d %-12.1f %.4f\n", r, m.Float64(), m.Div(lb).Float64())
	}
	fmt.Fprintf(w, "  (latency makes the optimum interior: the sqrt trade-off of §5.2)\n")
	return nil
}

// E16 regenerates the §5.1.2 multiport comparison: single port vs
// fixed card wiring (reconstructible) vs any-neighbor cards (bound
// only; reconstruction complexity open).
func E16(w io.Writer) error {
	ws := make([]platform.Weight, 4)
	cs := make([]rat.Rat, 4)
	for i := range ws {
		ws[i] = platform.WInt(1)
		cs[i] = rat.One()
	}
	p := platform.Star(platform.WInt(1000), ws, cs)
	fmt.Fprintf(w, "4 unit workers behind unit links, master w=1000\n")
	fmt.Fprintf(w, "  %-8s %-14s %-18s %-14s\n", "cards", "1-port", "fixed wiring", "any-neighbor")
	single, err := core.SolveMasterSlave(p, 0)
	if err != nil {
		return err
	}
	for _, k := range []int{1, 2, 4} {
		caps := core.UniformPorts(p, k)
		cards, err := core.SolveMasterSlaveCards(p, 0, core.RoundRobinCards(p, caps))
		if err != nil {
			return err
		}
		per, err := schedule.ReconstructCards(cards)
		if err != nil {
			return err
		}
		agg, err := core.SolveMasterSlaveMultiport(p, 0, caps)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-8d %-14.4f %-18s %-14.4f\n", k,
			single.Throughput.Float64(),
			fmt.Sprintf("%.4f (T=%v)", cards.Throughput.Float64(), per.Period),
			agg.Throughput.Float64())
	}
	fmt.Fprintf(w, "  (fixed wiring schedules reconstruct per card — §5.1.2;\n")
	fmt.Fprintf(w, "   the any-neighbor relaxation is a bound, its reconstruction is open)\n")
	return nil
}

// E17 runs the greedy tree-packing heuristic on platforms too large
// for Steiner-tree enumeration — the regime where the §4.3
// NP-hardness bites and reference [7]'s heuristics are the only
// option. The exact optimum is unavailable; the max-operator LP bound
// brackets the heuristic from above.
func E17(w io.Writer) error {
	rng := rand.New(rand.NewSource(37))
	fmt.Fprintf(w, "Greedy multicast packing vs LP bound on large platforms\n")
	fmt.Fprintf(w, "  %-12s %-8s %-10s %-12s %-12s %-8s\n",
		"platform", "edges", "targets", "greedy", "bound", "ratio")
	for _, n := range []int{10, 14, 18} {
		p := platform.RandomConnected(rng, n, 2*n, 3, 3, 0)
		var targets []int
		for i := 1; i <= 3; i++ {
			targets = append(targets, i)
		}
		greedy, err := core.GreedyTreePacking(p, 0, targets)
		if err != nil {
			return err
		}
		if err := greedy.CheckPacking(); err != nil {
			return err
		}
		bound, err := core.SolveMulticastBound(p, 0, targets)
		if err != nil {
			return err
		}
		ratio := greedy.Throughput.Div(bound.Throughput)
		fmt.Fprintf(w, "  %-12s %-8d %-10d %-12.4f %-12.4f %.3f\n",
			fmt.Sprintf("random-%d", n), p.NumEdges(), len(targets),
			greedy.Throughput.Float64(), bound.Throughput.Float64(), ratio.Float64())
	}
	fmt.Fprintf(w, "  (the bound may itself be unachievable — E3 — so the true gap is smaller)\n")
	return nil
}
