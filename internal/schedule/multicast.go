package schedule

import (
	"fmt"
	"math/big"

	"repro/internal/core"
	"repro/pkg/steady/rat"
	"repro/pkg/steady/sim/event"
)

// ReconstructTreePacking turns a core.TreePacking into a concrete
// periodic schedule: the period is the lcm of the tree rates'
// denominators, tree i is a replicated commodity routing its T*rate
// instances along its edges, and the §4.1 bipartite coloring
// orchestrates the one-port communications. Every target receives
// OpsPerPeriod = T*TP messages per period.
//
// Its existence is the constructive side of §4.3: for broadcast the
// packing meets the max-operator LP bound (achievability, [5]); for
// multicast it meets the *true* optimum, which may sit strictly below
// the LP bound (Figure 2).
func ReconstructTreePacking(tp *core.TreePacking) (*Periodic, error) {
	if len(tp.Trees) == 0 {
		return nil, fmt.Errorf("schedule: empty packing")
	}
	p := tp.P
	var rates []rat.Rat
	for _, t := range tp.Trees {
		rates = append(rates, t.Rate)
	}
	rates = append(rates, tp.Throughput)
	T := rat.DenLCM(rates...)

	ops, ok := rat.ScaleInt(tp.Throughput, T)
	if !ok {
		return nil, fmt.Errorf("schedule: ops per period not integral")
	}
	coms := make([]event.Commodity, len(tp.Trees))
	for ti, t := range tp.Trees {
		n, ok := rat.ScaleInt(t.Rate, T)
		if !ok {
			return nil, fmt.Errorf("schedule: tree instance count not integral")
		}
		edge := make([]*big.Int, p.NumEdges())
		for e := range edge {
			edge[e] = new(big.Int)
		}
		for _, e := range t.Edges {
			if edge[e].Sign() != 0 {
				return nil, fmt.Errorf("schedule: tree %d repeats edge %d", ti, e)
			}
			edge[e].Set(n)
		}
		coms[ti] = event.Commodity{
			Name:       fmt.Sprintf("tree#%d", ti),
			Source:     tp.Source,
			Replicated: true,
			EdgeCount:  edge,
			Sinks:      append([]int(nil), tp.Targets...),
			Quota:      n,
		}
	}
	return build(p, T, onePort(p), coms, ops, tp.Throughput)
}
