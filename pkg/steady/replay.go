package steady

import (
	"fmt"
	"math/big"

	"repro/internal/core"
	"repro/internal/schedule"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
	"repro/pkg/steady/sim/event"
)

// Replay is a problem-independent description of one period of a
// reconstructed steady-state schedule, the input format of the public
// simulation engine (pkg/steady/sim). Every registered problem maps
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
// every registered problem under the base send-and-receive model:
//
//   - masterslave, scatter, multicast-sum, multicast-trees replay
//     their own reconstructed schedules (§4.1);
//   - multicast, broadcast and reduce have bound semantics and no
//     schedule of their own, so an exact tree packing (§4.3) is
//     solved as a companion: for broadcast and reduce the packing
//     meets the bound, for multicast it may sit strictly below it
//     (the Figure 2 gap), which the replay reports honestly.
//
// Send-or-receive results only admit the greedy evaluation (see
// EvaluateGreedy); Replay returns an error for them. The companion
// solve enumerates Steiner arborescences and is exponential in the
// worst case, so like Solve it is intended for small platforms.
func (r *Result) Replay() (*Replay, error) {
	if r.Model != SendAndReceive {
		return nil, fmt.Errorf("steady: no exact replay under the %s model; use EvaluateGreedy", r.Model)
	}
	switch sol := r.raw.(type) {
	case *core.MasterSlave:
		per, err := schedule.Reconstruct(sol)
		if err != nil {
			return nil, err
		}
		return replayFromPeriodic(r, per), nil
	case *core.TreePacking:
		mp, err := schedule.ReconstructTreePacking(sol)
		if err != nil {
			return nil, err
		}
		return replayFromMulticast(r, mp, "")
	case *core.Scatter:
		switch r.Problem {
		case "scatter", "multicast-sum":
			sp, err := schedule.ReconstructScatter(sol)
			if err != nil {
				return nil, err
			}
			return replayFromScatter(r, sp), nil
		case "multicast", "broadcast":
			return companionReplay(r, sol.P, sol.Source, sol.Targets)
		case "reduce":
			// The reduce bound was solved as broadcast on Reverse(G)
			// and presented on the original platform with the edge
			// activity transferring index-for-index; the companion
			// packing (and therefore the replay) runs on the reversed
			// platform, where the disseminations actually flow.
			return companionReplay(r, sol.P.Reverse(), sol.Source, sol.Targets)
		default:
			return nil, fmt.Errorf("steady: %s results are not replayable", r.Problem)
		}
	default:
		return nil, fmt.Errorf("steady: %s results are not replayable", r.Problem)
	}
}

// companionReplay solves the exact tree packing on the given platform
// and wraps it as a derived replay whose Certified value remains the
// originating bound.
func companionReplay(r *Result, p *platform.Platform, source int, targets []int) (*Replay, error) {
	pack, err := core.SolveTreePacking(p, source, targets)
	if err != nil {
		return nil, fmt.Errorf("steady: %s companion packing: %w", r.Problem, err)
	}
	mp, err := schedule.ReconstructTreePacking(pack)
	if err != nil {
		return nil, fmt.Errorf("steady: %s companion schedule: %w", r.Problem, err)
	}
	return replayFromMulticast(r, mp, "multicast-trees")
}

func replayFromPeriodic(r *Result, per *schedule.Periodic) *Replay {
	return &Replay{
		Platform:           per.P,
		Period:             per.Period,
		Certified:          r.Throughput,
		ScheduleThroughput: per.Throughput,
		OpsPerPeriod:       per.TasksPerPeriod,
		Commodities: []ReplayCommodity{{
			Name:      "tasks",
			Source:    per.Master,
			EdgeCount: decycle(per.P, per.EdgeTasks),
			Consume:   per.ComputeTasks,
			Quota:     per.TasksPerPeriod,
		}},
	}
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

func replayFromScatter(r *Result, sp *schedule.ScatterPeriodic) *Replay {
	p := sp.P
	rp := &Replay{
		Platform:           p,
		Period:             sp.Period,
		Certified:          r.Throughput,
		ScheduleThroughput: sp.Throughput,
		OpsPerPeriod:       sp.OpsPerPeriod,
	}
	for k, tgt := range sp.Targets {
		edge := make([]*big.Int, p.NumEdges())
		for e := 0; e < p.NumEdges(); e++ {
			edge[e] = sp.Msgs[e][k]
		}
		rp.Commodities = append(rp.Commodities, ReplayCommodity{
			Name:      "msg[" + p.Name(tgt) + "]",
			Source:    sp.Source,
			EdgeCount: decycle(p, edge),
			Sinks:     []int{tgt},
			Quota:     sp.OpsPerPeriod,
		})
	}
	return rp
}

func replayFromMulticast(r *Result, mp *schedule.MulticastPeriodic, derived string) (*Replay, error) {
	p := mp.P
	rp := &Replay{
		Platform:           p,
		Period:             mp.Period,
		Certified:          r.Throughput,
		ScheduleThroughput: mp.Throughput,
		OpsPerPeriod:       mp.OpsPerPeriod,
		Derived:            derived,
	}
	for t, edges := range mp.Trees {
		if mp.Instances[t].Sign() == 0 {
			continue
		}
		edge := make([]*big.Int, p.NumEdges())
		for _, e := range edges {
			if edge[e] != nil {
				return nil, fmt.Errorf("steady: tree %d repeats edge %d", t, e)
			}
			edge[e] = mp.Instances[t]
		}
		rp.Commodities = append(rp.Commodities, ReplayCommodity{
			Name:       fmt.Sprintf("tree#%d", t),
			Source:     mp.Source,
			Replicated: true,
			EdgeCount:  edge,
			Sinks:      append([]int(nil), mp.Targets...),
			Quota:      mp.Instances[t],
		})
	}
	if len(rp.Commodities) == 0 {
		return nil, fmt.Errorf("steady: packing schedules no instances")
	}
	return rp, nil
}
