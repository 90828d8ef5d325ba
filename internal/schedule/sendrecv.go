package schedule

import (
	"fmt"
	"math/big"

	"repro/internal/coloring"
	"repro/internal/core"
	"repro/pkg/steady/rat"
)

// SendRecvEvaluation quantifies §5.1.1: under the send-OR-receive
// model the LP bound still exists, but orchestrating the
// communications requires edge-coloring an arbitrary graph (NP-hard),
// so a greedy decomposition may stretch the period and lose
// throughput.
type SendRecvEvaluation struct {
	// Bound is the LP optimum ntask(G) under the shared-port model.
	Bound rat.Rat
	// Achieved is the throughput of the schedule obtained with the
	// greedy general-graph decomposition: the communication phase may
	// exceed T, stretching the period.
	Achieved rat.Rat
	// Period is the nominal period T; Stretched is the greedy
	// decomposition's total communication time (>= the max port load).
	Period, Stretched *big.Int
	// Slots is the number of matchings in the greedy decomposition.
	Slots int
}

// EvaluateSendRecv solves the send-or-receive master-slave LP and
// reconstructs a schedule with the greedy general-graph coloring,
// reporting bound vs achieved (the E9 gap).
func EvaluateSendRecv(ms *core.MasterSlave) (*SendRecvEvaluation, error) {
	if ms.Model != core.SendOrReceive {
		return nil, fmt.Errorf("schedule: solution is not under the send-or-receive model")
	}
	if err := ms.Check(); err != nil {
		return nil, fmt.Errorf("schedule: invalid solution: %w", err)
	}
	p := ms.P
	T := period(ms)
	TR := rat.FromBig(new(big.Rat).SetInt(T))

	// General conflict graph: one vertex per processor (single shared
	// port), one edge per platform link with its per-period busy time.
	var gedges []coloring.GEdge
	for e := 0; e < p.NumEdges(); e++ {
		busy := ms.S[e].MulBigInt(T)
		if busy.Sign() == 0 {
			continue
		}
		ed := p.Edge(e)
		gedges = append(gedges, coloring.GEdge{U: ed.From, V: ed.To, W: busy, ID: e})
	}
	slots, total, delta := coloring.DecomposeGeneral(p.NumNodes(), gedges)

	// Sanity: the LP's port constraints guarantee delta <= T.
	if delta.Cmp(TR) > 0 {
		return nil, fmt.Errorf("schedule: port load %v exceeds period %v", delta, TR)
	}
	// The schedule runs the greedy communication phase (length
	// `total`) plus overlapped computation (<= T): the effective
	// period is max(T, total).
	eff := rat.Max(TR, total)
	tasks := ms.Throughput.Mul(TR)
	achieved := tasks.Div(eff)

	ev := &SendRecvEvaluation{
		Bound:    ms.Throughput,
		Achieved: achieved,
		Period:   T,
		Slots:    len(slots),
	}
	// Stretched as an integer when it is one (common: integral busy
	// times), otherwise rounded up for reporting.
	if total.IsInt() {
		ev.Stretched = total.Floor()
	} else {
		ev.Stretched = total.Floor()
		ev.Stretched.Add(ev.Stretched, big.NewInt(1))
	}
	return ev, nil
}
