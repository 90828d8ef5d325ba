package core

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/pkg/steady/lp"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

// SolveMulticastBound solves the §3.3 max-operator relaxation of
// SSPS(G): since multicast messages of a given operation are all
// identical, a single transmission on edge (i,j) may serve several
// targets, so s_ij = max_k send(i,j,k)*c_ij replaces the sum. The
// optimum is an *upper bound* on the achievable multicast throughput
// — possibly strict (the Figure 2/3 counterexample), which is why the
// result type is a Scatter with bound semantics rather than a
// schedule.
func SolveMulticastBound(p *platform.Platform, source int, targets []int) (*Scatter, error) {
	return solveDistribution(p, source, targets, SendAndReceive, true, nil)
}

// SolveMulticastBoundOpts is SolveMulticastBound under explicit LP
// options: an interrupt and a metrics registry.
func SolveMulticastBoundOpts(p *platform.Platform, source int, targets []int, opts *lp.Options) (*Scatter, error) {
	return solveDistribution(p, source, targets, SendAndReceive, true, opts)
}

// SolveBroadcastBound solves the max-operator LP with every node
// reachable from source as a target. For *broadcast* the bound is
// achievable ([5], §4.3): because every node ends up with the full
// information, it does not matter which messages propagate along
// which path.
func SolveBroadcastBound(p *platform.Platform, source int) (*Scatter, error) {
	return SolveBroadcastBoundOpts(p, source, nil)
}

// SolveBroadcastBoundOpts is SolveBroadcastBound under explicit LP
// options: an interrupt and a metrics registry.
func SolveBroadcastBoundOpts(p *platform.Platform, source int, opts *lp.Options) (*Scatter, error) {
	var targets []int
	reach := p.ReachableFrom(source)
	for i, ok := range reach {
		if ok && i != source {
			targets = append(targets, i)
		}
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("core: nothing reachable from source")
	}
	return SolveMulticastBoundOpts(p, source, targets, opts)
}

// MulticastTree is one directed Steiner arborescence rooted at the
// source and covering all targets, with Rate multicasts per time-unit
// routed along it in a tree-packing solution.
type MulticastTree struct {
	Edges []int // platform edge indices, a minimal arborescence
	Rate  rat.Rat
}

// TreePacking is the exact optimal steady-state multicast throughput
// over schedules that route every multicast instance along one tree
// (the natural class: a node needs each message once, so an
// instance's dissemination is an arborescence). Computing it requires
// enumerating Steiner arborescences — consistent with the §4.3
// NP-hardness [7] — so it is only feasible on small platforms, where
// it provides ground truth for the counterexample experiment E3.
type TreePacking struct {
	P          *platform.Platform
	Source     int
	Targets    []int
	Throughput rat.Rat
	Trees      []MulticastTree // only trees with positive rate
	NumTrees   int             // number of enumerated candidate trees

	// LP reports how the packing solve went.
	LP lp.SolveInfo
}

// maxTreeStates bounds the arborescence enumeration frontier.
const maxTreeStates = 1 << 22

// EnumerateMulticastTrees enumerates every minimal directed Steiner
// arborescence rooted at source covering all targets. Minimal means
// every leaf is a target (useless branches pruned). Platforms must
// have at most 63 edges. The search can visit maxTreeStates states, so a
// caller that may give up passes the channel that says so (a solve's
// lp.Options.Interrupt; nil never fires): it is polled every 1024 states
// and, once closed, the search returns lp.ErrInterrupted.
func EnumerateMulticastTrees(p *platform.Platform, source int, targets []int, interrupt <-chan struct{}) ([][]int, error) {
	if p.NumEdges() > 63 {
		return nil, fmt.Errorf("core: tree enumeration limited to 63 edges (have %d)", p.NumEdges())
	}
	targetMask := uint64(0)
	for _, t := range targets {
		if t == source {
			return nil, fmt.Errorf("core: source cannot be a target")
		}
		targetMask |= 1 << uint(t)
	}

	type state struct {
		nodes uint64 // nodes already in the arborescence
		edges uint64 // chosen platform edges
	}
	// A state's nodes are the source plus the heads of its edges, so
	// its edge mask alone tells whether it was seen.
	start := state{nodes: 1 << uint(source)}
	seen := map[uint64]struct{}{start.edges: {}}
	queue := []state{start}
	minimal := map[uint64]bool{}

	for visited := 0; len(queue) > 0; visited++ {
		if len(seen) > maxTreeStates {
			return nil, fmt.Errorf("core: tree enumeration exceeded %d states", maxTreeStates)
		}
		if visited%1024 == 0 {
			select {
			case <-interrupt:
				return nil, lp.ErrInterrupted
			default:
			}
		}
		st := queue[len(queue)-1]
		queue = queue[:len(queue)-1]

		if st.nodes&targetMask == targetMask {
			// Covering arborescence: prune non-target leaves to get
			// the minimal tree, then record it.
			minimal[pruneTree(p, st.edges, source, targetMask)] = true
			continue
		}
		// Grow by one edge from a tree node to a new node.
		for e := 0; e < p.NumEdges(); e++ {
			if st.edges&(1<<uint(e)) != 0 {
				continue
			}
			ed := p.Edge(e)
			if st.nodes&(1<<uint(ed.From)) == 0 || st.nodes&(1<<uint(ed.To)) != 0 {
				continue
			}
			ns := state{
				nodes: st.nodes | 1<<uint(ed.To),
				edges: st.edges | 1<<uint(e),
			}
			if _, ok := seen[ns.edges]; !ok {
				seen[ns.edges] = struct{}{}
				queue = append(queue, ns)
			}
		}
	}

	out := make([][]int, 0, len(minimal))
	for mask := range minimal {
		var es []int
		for e := 0; e < p.NumEdges(); e++ {
			if mask&(1<<uint(e)) != 0 {
				es = append(es, e)
			}
		}
		out = append(out, es)
	}
	// Deterministic order for reproducible experiment output.
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	return out, nil
}

// pruneTree repeatedly removes leaf edges whose leaf is not a target,
// returning the minimal tree's edge mask.
func pruneTree(p *platform.Platform, edges uint64, source int, targetMask uint64) uint64 {
	for {
		removed := false
		for e := 0; e < p.NumEdges(); e++ {
			if edges&(1<<uint(e)) == 0 {
				continue
			}
			to := p.Edge(e).To
			if targetMask&(1<<uint(to)) != 0 {
				continue
			}
			// Is `to` a leaf (no chosen edge leaves it)?
			leaf := true
			for _, oe := range p.OutEdges(to) {
				if edges&(1<<uint(oe)) != 0 {
					leaf = false
					break
				}
			}
			if leaf {
				edges &^= 1 << uint(e)
				removed = true
			}
		}
		if !removed {
			return edges
		}
	}
}

// SolveTreePacking computes the optimal steady-state multicast
// throughput by packing enumerated Steiner arborescences under the
// one-port constraints:
//
//	maximize  sum_T x_T
//	s.t.      for every node v:  sum_T x_T * (send time of v in T) <= 1
//	                             sum_T x_T * (recv time of v in T) <= 1
func SolveTreePacking(p *platform.Platform, source int, targets []int) (*TreePacking, error) {
	return SolveTreePackingOpts(p, source, targets, nil)
}

// SolveTreePackingOpts is SolveTreePacking under explicit LP options
// (an interrupt and a metrics registry).
func SolveTreePackingOpts(p *platform.Platform, source int, targets []int, opts *lp.Options) (*TreePacking, error) {
	if opts == nil {
		opts = &lp.Options{}
	}
	trees, err := EnumerateMulticastTrees(p, source, targets, opts.Interrupt)
	if err != nil {
		return nil, err
	}
	if len(trees) == 0 {
		return nil, fmt.Errorf("core: no multicast tree covers all targets")
	}

	m, x := buildTreePackingModel(p, trees, nil)

	sol, err := solveModel(m, opts)
	if err != nil {
		return nil, fmt.Errorf("core: tree packing LP: %w", err)
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("core: tree packing LP %v", sol.Status)
	}

	tp := &TreePacking{
		P: p, Source: source, Targets: append([]int(nil), targets...),
		Throughput: sol.Objective,
		NumTrees:   len(trees),
		LP:         sol.Info,
	}
	for t := range trees {
		r := sol.Value(x[t])
		if r.Sign() > 0 {
			tp.Trees = append(tp.Trees, MulticastTree{Edges: trees[t], Rate: r})
		}
	}
	return tp, nil
}

// buildTreePackingModel constructs the arborescence-packing LP over
// the enumerated candidate trees without solving it. With a nil nm the
// model is named on demand (see names).
func buildTreePackingModel(p *platform.Platform, trees [][]int, nm *names) (*lp.Model, []lp.Var) {
	m := newModel()
	if nm == nil {
		m.NameBy(func() *lp.Model {
			named, _ := buildTreePackingModel(p, trees, &names{p})
			return named
		})
	}
	x := make([]lp.Var, len(trees))
	obj := make(lp.Expr, 0, len(trees))
	for t := range trees {
		x[t] = m.Var(nm.f("x[tree%d]", t))
		obj = obj.PlusInt(x[t], 1)
	}
	m.Objective(lp.Maximize, obj)

	// Per-node send and receive time per multicast instance of tree t.
	one := rat.One()
	sendEx, recvEx := obj[:0], lp.Expr(nil) // one node's rows at a time: the model copies them
	for v := 0; v < p.NumNodes(); v++ {
		sendEx, recvEx = sendEx[:0], recvEx[:0]
		for t, es := range trees {
			st, rt := rat.Zero(), rat.Zero()
			for _, e := range es {
				ed := p.Edge(e)
				if ed.From == v {
					st = st.Add(ed.C)
				}
				if ed.To == v {
					rt = rt.Add(ed.C)
				}
			}
			if st.Sign() > 0 {
				sendEx = sendEx.Plus(x[t], st)
			}
			if rt.Sign() > 0 {
				recvEx = recvEx.Plus(x[t], rt)
			}
		}
		if len(sendEx) > 0 {
			m.Le(nm.node("send", v), sendEx, one)
		}
		if len(recvEx) > 0 {
			m.Le(nm.node("recv", v), recvEx, one)
		}
	}
	return m, x
}

// BestSingleTree returns the enumerated tree with the highest
// single-tree throughput 1/max_v(port time of v), the simplest
// multicast heuristic, together with that throughput.
func BestSingleTree(p *platform.Platform, source int, targets []int) ([]int, rat.Rat, error) {
	trees, err := EnumerateMulticastTrees(p, source, targets, nil)
	if err != nil {
		return nil, rat.Zero(), err
	}
	if len(trees) == 0 {
		return nil, rat.Zero(), fmt.Errorf("core: no multicast tree covers all targets")
	}
	var best []int
	bestTP := rat.Zero()
	for _, es := range trees {
		// Bottleneck: the largest per-instance busy time over any
		// send or receive port.
		bott := rat.Zero()
		for v := 0; v < p.NumNodes(); v++ {
			st, rt := rat.Zero(), rat.Zero()
			for _, e := range es {
				ed := p.Edge(e)
				if ed.From == v {
					st = st.Add(ed.C)
				}
				if ed.To == v {
					rt = rt.Add(ed.C)
				}
			}
			bott = rat.Max(bott, rat.Max(st, rt))
		}
		tp := bott.Inv()
		if bestTP.Less(tp) {
			best, bestTP = es, tp
		}
	}
	return best, bestTP, nil
}

// TreeEdgeConflict reports, for a two-tree packing, the platform
// edges used by more than one tree — the §4.3 phenomenon where
// odd-indexed (label a) and even-indexed (label b) multicast messages
// follow different trees and collide on a shared edge (P3->P4 in
// Figure 3(d)).
func TreeEdgeConflict(p *platform.Platform, trees []MulticastTree) []int {
	use := make([]int, p.NumEdges())
	for _, t := range trees {
		for _, e := range t.Edges {
			use[e]++
		}
	}
	var shared []int
	for e, n := range use {
		if n > 1 {
			shared = append(shared, e)
		}
	}
	return shared
}

// popcount is used in tests to reason about tree sizes.
func popcount(x uint64) int { return bits.OnesCount64(x) }
