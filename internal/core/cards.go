package core

import (
	"fmt"

	"repro/pkg/steady/lp"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

// CardAssign fixes, for every platform edge, which send card of its
// source and which receive card of its destination carry it — the
// §5.1.2 case where "each network card on a given host is used in
// only one direction ... and is linked to a set of fixed network
// cards on neighbor hosts". With the assignment fixed, the LP is
// per-card and the §4.1 reconstruction goes through with one
// bipartite node per card.
type CardAssign struct {
	Caps PortCaps
	// SendCard[e] in [0, Caps.Send[from]) and RecvCard[e] in
	// [0, Caps.Recv[to]) give edge e's cards.
	SendCard []int
	RecvCard []int
}

// RoundRobinCards spreads each node's edges over its cards cyclically
// — a reasonable default wiring.
func RoundRobinCards(p *platform.Platform, caps PortCaps) CardAssign {
	a := CardAssign{
		Caps:     caps,
		SendCard: make([]int, p.NumEdges()),
		RecvCard: make([]int, p.NumEdges()),
	}
	for i := 0; i < p.NumNodes(); i++ {
		for idx, e := range p.OutEdges(i) {
			a.SendCard[e] = idx % caps.Send[i]
		}
		for idx, e := range p.InEdges(i) {
			a.RecvCard[e] = idx % caps.Recv[i]
		}
	}
	return a
}

// Validate checks the assignment against the platform.
func (a CardAssign) Validate(p *platform.Platform) error {
	if err := a.Caps.Validate(p); err != nil {
		return err
	}
	if len(a.SendCard) != p.NumEdges() || len(a.RecvCard) != p.NumEdges() {
		return fmt.Errorf("core: card assignment must cover every edge")
	}
	for e := 0; e < p.NumEdges(); e++ {
		ed := p.Edge(e)
		if a.SendCard[e] < 0 || a.SendCard[e] >= a.Caps.Send[ed.From] {
			return fmt.Errorf("core: edge %d assigned to invalid send card", e)
		}
		if a.RecvCard[e] < 0 || a.RecvCard[e] >= a.Caps.Recv[ed.To] {
			return fmt.Errorf("core: edge %d assigned to invalid recv card", e)
		}
	}
	return nil
}

// CardSolution is a master-slave solution under a fixed card wiring.
type CardSolution struct {
	*MasterSlave
	Assign CardAssign
}

// SolveMasterSlaveCards solves SSMS(G) with per-card one-port
// constraints under the given fixed wiring.
func SolveMasterSlaveCards(p *platform.Platform, master int, assign CardAssign) (*CardSolution, error) {
	if err := assign.Validate(p); err != nil {
		return nil, err
	}
	ms, err := solveTaskFlow(p, master, SendAndReceive, assign.rows, assign.check, nil)
	if err != nil {
		return nil, err
	}
	return &CardSolution{MasterSlave: ms, Assign: assign}, nil
}

// rows adds the one-port constraint of every card: the edges wired to
// it share its unit of time.
func (a CardAssign) rows(m *lp.Model, p *platform.Platform, sVar []lp.Var, nm *names) {
	one := rat.One()
	var ex lp.Expr // one row at a time: the model copies it
	for i := 0; i < p.NumNodes(); i++ {
		for card := 0; card < a.Caps.Send[i]; card++ {
			ex = ex[:0]
			for _, e := range p.OutEdges(i) {
				if a.SendCard[e] == card {
					ex = ex.PlusInt(sVar[e], 1)
				}
			}
			if len(ex) > 0 {
				m.Le(nm.card("send", i, card), ex, one)
			}
		}
		for card := 0; card < a.Caps.Recv[i]; card++ {
			ex = ex[:0]
			for _, e := range p.InEdges(i) {
				if a.RecvCard[e] == card {
					ex = ex.PlusInt(sVar[e], 1)
				}
			}
			if len(ex) > 0 {
				m.Le(nm.card("recv", i, card), ex, one)
			}
		}
	}
}

// CheckCards re-verifies a card solution: everything Check verifies,
// with the per-card budgets as the port constraint.
func (cs *CardSolution) CheckCards() error {
	if err := cs.Assign.Validate(cs.P); err != nil {
		return err
	}
	return cs.check(cs.Assign.check)
}

// check verifies the per-card budgets on concrete activities.
func (a CardAssign) check(p *platform.Platform, s []rat.Rat) error {
	one := rat.One()
	for i := 0; i < p.NumNodes(); i++ {
		sendLoad := make([]rat.Rat, a.Caps.Send[i])
		for _, e := range p.OutEdges(i) {
			c := a.SendCard[e]
			sendLoad[c] = sendLoad[c].Add(s[e])
		}
		for card, l := range sendLoad {
			if l.Cmp(one) > 0 {
				return fmt.Errorf("core: send card %d of %s overloaded: %v", card, p.Name(i), l)
			}
		}
		recvLoad := make([]rat.Rat, a.Caps.Recv[i])
		for _, e := range p.InEdges(i) {
			c := a.RecvCard[e]
			recvLoad[c] = recvLoad[c].Add(s[e])
		}
		for card, l := range recvLoad {
			if l.Cmp(one) > 0 {
				return fmt.Errorf("core: recv card %d of %s overloaded: %v", card, p.Name(i), l)
			}
		}
	}
	return nil
}
