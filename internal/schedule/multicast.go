package schedule

import (
	"fmt"
	"math/big"

	"repro/internal/core"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

// MulticastPeriodic is a periodic multicast/broadcast schedule built
// from an exact tree packing: within each period of T time units,
// Instances[t] multicast instances are routed along tree t, and every
// target receives OpsPerPeriod = T*TP messages.
//
// Its existence is the constructive side of §4.3: for broadcast the
// packing meets the max-operator LP bound (achievability, [5]); for
// multicast it meets the *true* optimum, which may sit strictly below
// the LP bound (Figure 2).
type MulticastPeriodic struct {
	P       *platform.Platform
	Source  int
	Targets []int

	Period       *big.Int
	Instances    []*big.Int // per packing tree
	Trees        [][]int    // edge lists, parallel to Instances
	OpsPerPeriod *big.Int
	Slots        []Slot
	Throughput   rat.Rat
}

// ReconstructTreePacking turns a core.TreePacking into a concrete
// periodic schedule: the period is the lcm of the tree rates'
// denominators, per-edge busy times aggregate the trees crossing the
// edge, and the §4.1 bipartite coloring orchestrates the one-port
// communications.
func ReconstructTreePacking(tp *core.TreePacking) (*MulticastPeriodic, error) {
	if len(tp.Trees) == 0 {
		return nil, fmt.Errorf("schedule: empty packing")
	}
	var rates []rat.Rat
	for _, t := range tp.Trees {
		rates = append(rates, t.Rate)
	}
	rates = append(rates, tp.Throughput)
	T := rat.DenLCM(rates...)

	mp := &MulticastPeriodic{
		P: tp.P, Source: tp.Source, Targets: append([]int(nil), tp.Targets...),
		Period:     T,
		Throughput: tp.Throughput,
	}
	for _, t := range tp.Trees {
		n, ok := rat.ScaleInt(t.Rate, T)
		if !ok {
			return nil, fmt.Errorf("schedule: tree instance count not integral")
		}
		mp.Instances = append(mp.Instances, n)
		mp.Trees = append(mp.Trees, append([]int(nil), t.Edges...))
	}
	ops, ok := rat.ScaleInt(tp.Throughput, T)
	if !ok {
		return nil, fmt.Errorf("schedule: ops per period not integral")
	}
	mp.OpsPerPeriod = ops

	slots, err := orchestrate(onePort(tp.P), func(e int) rat.Rat {
		busy := rat.Zero()
		for ti, es := range mp.Trees {
			for _, te := range es {
				if te == e {
					busy = busy.Add(rat.FromBig(new(big.Rat).SetInt(mp.Instances[ti])).Mul(tp.P.Edge(e).C))
				}
			}
		}
		return busy
	})
	if err != nil {
		return nil, err
	}
	mp.Slots = slots
	if err := mp.Check(); err != nil {
		return nil, fmt.Errorf("schedule: tree-packing reconstruction invalid: %w", err)
	}
	return mp, nil
}

// Check verifies the multicast schedule: every target is covered by
// every scheduled instance, deliveries per period equal T*TP, slots
// are matchings and cover each edge's exact busy time within T.
func (mp *MulticastPeriodic) Check() error {
	p := mp.P

	// Each tree must reach every target from the source, and the
	// instance counts must sum to the per-period deliveries.
	total := new(big.Int)
	for ti, es := range mp.Trees {
		reach := map[int]bool{mp.Source: true}
		remaining := append([]int(nil), es...)
		for progress := true; progress; {
			progress = false
			next := remaining[:0]
			for _, e := range remaining {
				ed := p.Edge(e)
				if reach[ed.From] && !reach[ed.To] {
					reach[ed.To] = true
					progress = true
					continue
				}
				next = append(next, e)
			}
			remaining = next
		}
		for _, t := range mp.Targets {
			if !reach[t] {
				return fmt.Errorf("schedule: tree %d does not reach target %d", ti, t)
			}
		}
		total.Add(total, mp.Instances[ti])
	}
	if total.Cmp(mp.OpsPerPeriod) != 0 {
		return fmt.Errorf("schedule: instances %v != ops/period %v", total, mp.OpsPerPeriod)
	}

	// Slot structure.
	busy := make([]rat.Rat, p.NumEdges())
	for ti, es := range mp.Trees {
		for _, e := range es {
			busy[e] = busy[e].Add(rat.FromBig(new(big.Rat).SetInt(mp.Instances[ti])).Mul(p.Edge(e).C))
		}
	}
	return checkSlots(onePort(p), mp.Slots, mp.Period, func(e int) rat.Rat { return busy[e] })
}

// String renders a compact description.
func (mp *MulticastPeriodic) String() string {
	return fmt.Sprintf("multicast period T=%v, %v ops/period (TP %v) over %d trees, %d comm slots",
		mp.Period, mp.OpsPerPeriod, mp.Throughput, len(mp.Trees), len(mp.Slots))
}
