package steady

import (
	"context"
	"fmt"
	"math/big"
	"slices"

	"repro/internal/core"
	"repro/internal/schedule"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
	"repro/pkg/steady/sim/event"
)

// Replay is a problem-independent description of one period of a
// reconstructed steady-state schedule, the input format of the public
// simulation engine (pkg/steady/sim). Every problem maps
// onto the same three ingredients:
//
//   - a Period T (integer, the lcm of the solution's denominators);
//   - a set of Commodities, each with integral per-edge transfer
//     counts per period and either consumption (master-slave tasks)
//     or delivery (scatter messages, multicast instances) semantics;
//   - the schedule's own steady-state rate (ScheduleThroughput) and
//     the certified objective of the originating Result (Certified),
//     which coincide except for derived companion schedules.
//
// The engine replays the commodities store-and-forward at period
// granularity — a node can only forward or consume what it received
// in earlier periods — exactly the §4.2 construction whose transient
// is bounded by the platform depth.
type Replay struct {
	// Platform is the graph the replay runs on. For reduce it is the
	// reversed platform (reduce = broadcast on Reverse(G), §4.2).
	Platform *platform.Platform
	// Period is the integer period T.
	Period *big.Int
	// Certified is the originating Result's objective: the value the
	// simulated throughput is measured against.
	Certified rat.Rat
	// ScheduleThroughput is the replayed schedule's own steady-state
	// rate. It equals Certified except when the schedule is a derived
	// companion (Derived != ""), where it may sit strictly below a
	// bound-semantics objective (the §4.3 multicast gap).
	ScheduleThroughput rat.Rat
	// OpsPerPeriod is the schedule's total completed operations per
	// steady-state period (tasks for masterslave; per-target message
	// batches for the distribution problems).
	OpsPerPeriod *big.Int
	// Commodities are the independent flows/disseminations replayed.
	Commodities []ReplayCommodity
	// Derived names the companion schedule used when the problem
	// itself has bound semantics and no schedule: "multicast-trees"
	// for multicast/broadcast/reduce. Empty otherwise.
	Derived string
}

// ReplayCommodity is one independently-conserved flow (master-slave
// tasks, one scatter target type) or one replicated dissemination
// (one multicast tree) of a Replay: the event core's own commodity
// type, so a Replay feeds the periodic replay without conversion.
type ReplayCommodity = event.Commodity

// Replay turns the result into the problem-independent periodic
// replay description consumed by pkg/steady/sim. It is available for
// every problem under the base send-and-receive model. What a result
// replays as is its problem-table row's decision:
//
//   - a problem with a schedule (masterslave, scatter, multicast-sum,
//     multicast-trees) replays its own §4.1 reconstruction, the
//     schedule Reconstruct returns, converted once (replayCommodities)
//     exactly as Schedule.Simulate converts it;
//   - a bound with no schedule of its own (multicast, broadcast,
//     reduce) replays its row's companion: the exact tree packing
//     (§4.3), solved here under ctx like any other solve. For
//     broadcast and reduce the packing meets the bound, for multicast
//     it may sit strictly below it (the Figure 2 gap), which the
//     replay reports honestly.
//
// Send-or-receive results only admit the greedy evaluation (see
// EvaluateGreedy); Replay returns an error for them. The companion
// solve enumerates Steiner arborescences and is exponential in the
// worst case; once ctx is done it stops and Replay returns ctx.Err().
func (r *Result) Replay(ctx context.Context) (*Replay, error) {
	if r.Model != SendAndReceive {
		return nil, fmt.Errorf("steady: no exact replay under the %s model; use EvaluateGreedy", r.Model)
	}
	if sc, ok := r.raw.(*core.Scatter); ok && r.row.companion != nil {
		return companionReplay(ctx, r, sc)
	}
	per, err := r.periodic()
	if err != nil {
		return nil, err
	}
	return &Replay{
		Platform:           per.P,
		Period:             per.Period,
		Certified:          r.Throughput,
		ScheduleThroughput: per.Throughput,
		OpsPerPeriod:       per.OpsPerPeriod,
		Commodities:        replayCommodities(per),
	}, nil
}

// companionReplay solves the bound's companion row under ctx, with the
// bound's own source and targets, and replays that solve's schedule as a
// derived replay whose Certified value remains the bound.
func companionReplay(ctx context.Context, r *Result, sc *core.Scatter) (*Replay, error) {
	c, p := r.row.companion, sc.P
	if r.row.reversed {
		// The bound was solved on Reverse(G) and presented on the
		// original platform, edge activity transferring index for
		// index; the companion (and so the replay) runs on the reversed
		// platform, where the disseminations actually flow.
		p = p.Reverse()
	}
	pack, err := c.run(ctx, p, sc.Source, sc.Targets, SendAndReceive, nil)
	if err != nil && err == ctx.Err() {
		return nil, err // interrupted: ctx.Err() itself, as Solve returns it
	}
	if err != nil {
		return nil, fmt.Errorf("steady: %s companion packing: %w", r.Problem, err)
	}
	rp, err := pack.Replay(ctx)
	if err != nil {
		return nil, fmt.Errorf("steady: %s companion schedule: %w", r.Problem, err)
	}
	rp.Certified = r.Throughput
	rp.Derived = c.Problem
	return rp, nil
}

// replayCommodities is the one conversion of a schedule into the
// periodic replay's input: the schedule's own commodities, with every
// directed cycle canceled from the flows (see decycle). The schedule's
// counts, and so its slots, are untouched.
func replayCommodities(per *schedule.Periodic) []ReplayCommodity {
	out := slices.Clone(per.Commodities)
	for k := range out {
		if !out[k].Replicated {
			out[k].EdgeCount = decycle(per.P, out[k].EdgeCount)
		}
	}
	return out
}

// decycle returns a copy of the per-period edge counts with every
// directed cycle canceled (subtracting the cycle's minimum count
// around it). LP witnesses may sit on degenerate vertices carrying
// circulations; a circulation preserves conservation and net
// delivery, so removing it changes no certified quantity, but it
// would confuse a provenance-tracking replay — a cycle re-delivers
// the same units forever once primed. Cancellation preserves each
// node's divergence, so conservation and net deliveries survive.
func decycle(p *platform.Platform, counts []*big.Int) []*big.Int {
	out := make([]*big.Int, len(counts))
	for e, n := range counts {
		out[e] = new(big.Int)
		if n != nil {
			out[e].Set(n)
		}
	}
	for {
		cycle := findCycle(p, out)
		if cycle == nil {
			return out
		}
		min := new(big.Int).Set(out[cycle[0]])
		for _, e := range cycle[1:] {
			if out[e].Cmp(min) < 0 {
				min.Set(out[e])
			}
		}
		for _, e := range cycle {
			out[e].Sub(out[e], min)
		}
	}
}

// findCycle returns the edge indices of one directed cycle in the
// support of counts, or nil if the support is acyclic.
func findCycle(p *platform.Platform, counts []*big.Int) []int {
	const (
		white = 0 // unvisited
		grey  = 1 // on the current DFS path
		black = 2 // fully explored
	)
	color := make([]int, p.NumNodes())
	parentEdge := make([]int, p.NumNodes())
	var cycle []int
	var dfs func(u int) bool
	dfs = func(u int) bool {
		color[u] = grey
		for _, e := range p.OutEdges(u) {
			if counts[e].Sign() <= 0 {
				continue
			}
			v := p.Edge(e).To
			switch color[v] {
			case white:
				parentEdge[v] = e
				if dfs(v) {
					return true
				}
			case grey:
				// Found a cycle v -> ... -> u -> v; walk back.
				cycle = []int{e}
				for w := u; w != v; w = p.Edge(parentEdge[w]).From {
					cycle = append(cycle, parentEdge[w])
				}
				return true
			}
		}
		color[u] = black
		return false
	}
	for u := 0; u < p.NumNodes(); u++ {
		if color[u] == white && dfs(u) {
			return cycle
		}
	}
	return nil
}
