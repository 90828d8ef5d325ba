package schedule

import (
	"fmt"
	"math/big"

	"repro/internal/core"
	"repro/pkg/steady/rat"
	"repro/pkg/steady/sim/event"
)

// ReconstructScatter performs the §4.1 construction on a scatter
// solution (sum semantics; it must not be applied to the max-operator
// multicast bound, whose unachievability is the point of §4.3): one
// message commodity per target, each delivering OpsPerPeriod = T*TP
// messages to its target every period.
func ReconstructScatter(sc *core.Scatter) (*Periodic, error) {
	if err := sc.Check(); err != nil {
		return nil, fmt.Errorf("schedule: refusing invalid scatter solution: %w", err)
	}
	p := sc.P
	var rates []rat.Rat
	for e := 0; e < p.NumEdges(); e++ {
		rates = append(rates, sc.Send[e]...)
	}
	rates = append(rates, sc.Throughput)
	T := rat.DenLCM(rates...)

	ops, ok := rat.ScaleInt(sc.Throughput, T)
	if !ok {
		return nil, fmt.Errorf("schedule: operations per period not integral")
	}
	coms := make([]event.Commodity, len(sc.Targets))
	for k, tgt := range sc.Targets {
		edge := make([]*big.Int, p.NumEdges())
		for e := range edge {
			n, ok := rat.ScaleInt(sc.Send[e][k], T)
			if !ok {
				return nil, fmt.Errorf("schedule: message count e%d k%d not integral", e, k)
			}
			edge[e] = n
		}
		coms[k] = event.Commodity{Name: "msg[" + p.Name(tgt) + "]", Source: sc.Source, EdgeCount: edge, Sinks: []int{tgt}, Quota: ops}
	}
	return build(p, T, onePort(p), coms, ops, sc.Throughput)
}
