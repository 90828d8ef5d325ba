package core

import (
	"fmt"

	"repro/pkg/steady/lp"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

// PortCaps gives each node's number of network cards in the §5.1.2
// multiport model: Send[i] cards are dedicated to emissions and
// Recv[i] to receptions (the paper notes that letting one card do
// both makes reconstruction NP-hard; dedicated directions keep it
// polynomial — "a linear program can be derived ... and the schedule
// can be reconstructed (each node in the bipartite graph corresponds
// to a network card)").
type PortCaps struct {
	Send []int
	Recv []int
}

// UniformPorts gives every node k send cards and k receive cards.
func UniformPorts(p *platform.Platform, k int) PortCaps {
	s := make([]int, p.NumNodes())
	r := make([]int, p.NumNodes())
	for i := range s {
		s[i], r[i] = k, k
	}
	return PortCaps{Send: s, Recv: r}
}

// Validate checks the capacities.
func (pc PortCaps) Validate(p *platform.Platform) error {
	if len(pc.Send) != p.NumNodes() || len(pc.Recv) != p.NumNodes() {
		return fmt.Errorf("core: port caps must cover every node")
	}
	for i := range pc.Send {
		if pc.Send[i] < 1 || pc.Recv[i] < 1 {
			return fmt.Errorf("core: node %d needs at least one card per direction", i)
		}
	}
	return nil
}

// SolveMasterSlaveMultiport solves SSMS(G) under the aggregated
// multiport model: node i may run up to Send[i] simultaneous
// emissions and Recv[i] simultaneous receptions, each card able to
// serve *any* neighbor, each edge still carrying at most one transfer
// at a time (s_e <= 1). Per §5.1.2 the complexity of reconstructing a
// schedule from this relaxation is open, so the value is exposed as
// an upper bound only; use SolveMasterSlaveCards for the fixed
// card-to-card variant whose schedule reconstruction is polynomial.
func SolveMasterSlaveMultiport(p *platform.Platform, master int, caps PortCaps) (*MasterSlave, error) {
	if err := caps.Validate(p); err != nil {
		return nil, err
	}
	// Model is SendAndReceive: the semantics are per card, and a plain
	// Check of a k > 1 solution rightly refuses it as a one-port one.
	return solveTaskFlow(p, master, SendAndReceive, caps.rows, caps.check, nil)
}

// rows adds the multiport constraints: aggregated card time per node
// and direction.
func (pc PortCaps) rows(m *lp.Model, p *platform.Platform, sVar []lp.Var, nm *names) {
	var ex lp.Expr // one row at a time: the model copies it
	for i := 0; i < p.NumNodes(); i++ {
		ex = ex[:0]
		for _, e := range p.OutEdges(i) {
			ex = ex.PlusInt(sVar[e], 1)
		}
		if len(ex) > 0 {
			m.Le(nm.node("send-cards", i), ex, rat.FromInt(int64(pc.Send[i])))
		}
		ex = ex[:0]
		for _, e := range p.InEdges(i) {
			ex = ex.PlusInt(sVar[e], 1)
		}
		if len(ex) > 0 {
			m.Le(nm.node("recv-cards", i), ex, rat.FromInt(int64(pc.Recv[i])))
		}
	}
}

// CheckMultiport re-verifies a multiport solution: everything Check
// verifies, with the aggregated card budgets as the port constraint.
func CheckMultiport(ms *MasterSlave, caps PortCaps) error {
	if err := caps.Validate(ms.P); err != nil {
		return err
	}
	return ms.check(caps.check)
}

// check verifies the aggregated card budgets on concrete activities.
func (pc PortCaps) check(p *platform.Platform, s []rat.Rat) error {
	for i := 0; i < p.NumNodes(); i++ {
		out, in := rat.Zero(), rat.Zero()
		for _, e := range p.OutEdges(i) {
			out = out.Add(s[e])
		}
		for _, e := range p.InEdges(i) {
			in = in.Add(s[e])
		}
		if out.Cmp(rat.FromInt(int64(pc.Send[i]))) > 0 {
			return fmt.Errorf("core: node %s exceeds %d send cards", p.Name(i), pc.Send[i])
		}
		if in.Cmp(rat.FromInt(int64(pc.Recv[i]))) > 0 {
			return fmt.Errorf("core: node %s exceeds %d recv cards", p.Name(i), pc.Recv[i])
		}
	}
	return nil
}
