package core

import (
	"fmt"

	"repro/pkg/steady/lp"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

// SolveReduceBound computes the optimal steady-state throughput of a
// pipelined reduce to root ("the approach for scatters also works for
// personalized all-to-all and reduce operations" — §4.2, [12]).
//
// A reduction combines partial results on the way to the root: the
// reduction trees are exactly the broadcast trees of the *reversed*
// platform, so the reduce throughput equals the broadcast bound on
// Reverse(G) rooted at root. Like broadcast (and unlike multicast)
// the bound is achievable.
func SolveReduceBound(p *platform.Platform, root int) (*Scatter, error) {
	return SolveReduceBoundOpts(p, root, nil)
}

// SolveReduceBoundOpts is SolveReduceBound under explicit LP options
// (an interrupt and a metrics registry).
func SolveReduceBoundOpts(p *platform.Platform, root int, opts *lp.Options) (*Scatter, error) {
	r := p.Reverse()
	sol, err := SolveBroadcastBoundOpts(r, root, opts)
	if err != nil {
		return nil, fmt.Errorf("core: reduce: %w", err)
	}
	// Present the solution on the original platform: edge i of the
	// reversed platform is edge i of p with endpoints swapped, so the
	// activity variables transfer index-for-index.
	sol.P = p
	return sol, nil
}

// AllToAll is the solved steady-state personalized all-to-all
// program: every ordered pair (src, dst) of distinct participants
// exchanges TP distinct messages per time-unit.
type AllToAll struct {
	P            *platform.Platform
	Participants []int
	Model        PortModel

	Throughput rat.Rat
	// S[e] is the busy fraction of edge e.
	S []rat.Rat
	// Send[e][q] is the flow on edge e of pair q (see Pairs).
	Send [][]rat.Rat
	// Pairs lists the (src, dst) ordered pairs indexed by q.
	Pairs [][2]int
}

// SolveAllToAll builds and solves the personalized all-to-all LP: the
// commodity-flow LP of scatter.go with one commodity per ordered pair
// of participants — a scatter from every participant simultaneously,
// with a common throughput TP.
func SolveAllToAll(p *platform.Platform, participants []int) (*AllToAll, error) {
	if len(participants) < 2 {
		return nil, fmt.Errorf("core: all-to-all needs at least two participants")
	}
	var pairs [][2]int
	for _, s := range participants {
		for _, t := range participants {
			if s != t {
				pairs = append(pairs, [2]int{s, t})
			}
		}
	}
	fs, err := solveFlows(p, pairs, SendAndReceive, false, nil)
	if err != nil {
		return nil, fmt.Errorf("core: all-to-all: %w", err)
	}
	return &AllToAll{
		P: p, Participants: append([]int(nil), participants...),
		Model:      SendAndReceive,
		Throughput: fs.tp,
		S:          fs.s,
		Send:       fs.send,
		Pairs:      pairs,
	}, nil
}

// Check re-verifies the all-to-all equations independently.
func (a *AllToAll) Check() error {
	return checkFlows(a.P, a.Pairs, a.Model, false, a.Throughput, a.S, a.Send)
}
