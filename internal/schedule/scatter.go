package schedule

import (
	"fmt"
	"math/big"

	"repro/internal/core"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

// ScatterPeriodic is the reconstructed periodic schedule of a
// pipelined scatter (§3.2 + §4.1): within each period of T time
// units, Msgs[e][k] messages of type k cross edge e, delivered to
// every target at OpsPerPeriod = T*TP messages per period.
type ScatterPeriodic struct {
	P       *platform.Platform
	Source  int
	Targets []int

	Period *big.Int
	// Msgs[e][k] is the integral per-period message count of target
	// type k on edge e.
	Msgs [][]*big.Int
	// OpsPerPeriod = T * TP, the per-period deliveries at every target.
	OpsPerPeriod *big.Int
	Slots        []Slot
	Throughput   rat.Rat
}

// ReconstructScatter performs the §4.1 construction on a scatter
// solution (sum semantics; it must not be applied to the max-operator
// multicast bound, whose unachievability is the point of §4.3).
func ReconstructScatter(sc *core.Scatter) (*ScatterPeriodic, error) {
	if err := sc.Check(); err != nil {
		return nil, fmt.Errorf("schedule: refusing invalid scatter solution: %w", err)
	}
	p := sc.P
	nE, nK := p.NumEdges(), len(sc.Targets)

	var rates []rat.Rat
	for e := 0; e < nE; e++ {
		rates = append(rates, sc.Send[e]...)
	}
	rates = append(rates, sc.Throughput)
	T := rat.DenLCM(rates...)

	sp := &ScatterPeriodic{
		P: p, Source: sc.Source, Targets: append([]int(nil), sc.Targets...),
		Period:     T,
		Msgs:       make([][]*big.Int, nE),
		Throughput: sc.Throughput,
	}
	for e := 0; e < nE; e++ {
		sp.Msgs[e] = make([]*big.Int, nK)
		for k := 0; k < nK; k++ {
			n, ok := rat.ScaleInt(sc.Send[e][k], T)
			if !ok {
				return nil, fmt.Errorf("schedule: message count e%d k%d not integral", e, k)
			}
			sp.Msgs[e][k] = n
		}
	}
	ops, ok := rat.ScaleInt(sc.Throughput, T)
	if !ok {
		return nil, fmt.Errorf("schedule: operations per period not integral")
	}
	sp.OpsPerPeriod = ops

	slots, err := orchestrate(onePort(p), func(e int) rat.Rat {
		// Distinct messages: busy time is the sum over types.
		tot := rat.Zero()
		for k := 0; k < nK; k++ {
			tot = tot.Add(rat.FromBig(new(big.Rat).SetInt(sp.Msgs[e][k])))
		}
		return tot.Mul(p.Edge(e).C)
	})
	if err != nil {
		return nil, err
	}
	sp.Slots = slots
	if err := sp.Check(); err != nil {
		return nil, fmt.Errorf("schedule: scatter reconstruction invalid: %w", err)
	}
	return sp, nil
}

// Check independently verifies the scatter schedule invariants.
func (sp *ScatterPeriodic) Check() error {
	p := sp.P

	// Integer conservation per type; delivery at targets.
	for k, tgt := range sp.Targets {
		for i := 0; i < p.NumNodes(); i++ {
			if i == sp.Source || i == tgt {
				continue
			}
			in, out := new(big.Int), new(big.Int)
			for _, e := range p.InEdges(i) {
				in.Add(in, sp.Msgs[e][k])
			}
			for _, e := range p.OutEdges(i) {
				out.Add(out, sp.Msgs[e][k])
			}
			if in.Cmp(out) != 0 {
				return fmt.Errorf("schedule: scatter conservation violated at n%d k%d", i, k)
			}
		}
		// Delivery is net of the target's own out-flow, matching the
		// LP's net delivery equation: only messages that genuinely
		// terminate at the target count.
		got := new(big.Int)
		for _, e := range p.InEdges(tgt) {
			got.Add(got, sp.Msgs[e][k])
		}
		for _, e := range p.OutEdges(tgt) {
			got.Sub(got, sp.Msgs[e][k])
		}
		if got.Cmp(sp.OpsPerPeriod) != 0 {
			return fmt.Errorf("schedule: target %d nets %v != %v per period", tgt, got, sp.OpsPerPeriod)
		}
	}
	// Slots: matching property, per-edge time, total <= T.
	return checkSlots(onePort(p), sp.Slots, sp.Period, func(e int) rat.Rat {
		want := rat.Zero()
		for k := range sp.Targets {
			want = want.Add(rat.FromBig(new(big.Rat).SetInt(sp.Msgs[e][k])))
		}
		return want.Mul(p.Edge(e).C)
	})
}

// String renders a compact description.
func (sp *ScatterPeriodic) String() string {
	return fmt.Sprintf("scatter period T=%v, %v ops/period (TP %v), %d comm slots",
		sp.Period, sp.OpsPerPeriod, sp.Throughput, len(sp.Slots))
}
