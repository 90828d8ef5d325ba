// Package core implements the paper's primary contribution: the
// steady-state linear programs of §3 and their surrounding theory.
//
//   - Master-slave tasking (§3.1): SSMS(G), maximizing the number of
//     independent equal-sized tasks processed per time-unit.
//   - Pipelined scatter (§3.2): SSPS(G), maximizing the common
//     throughput of a series of scatter operations.
//   - Pipelined broadcast/multicast (§3.3): the max-operator variant,
//     which upper-bounds multicast throughput (unachievable in
//     general — Figure 2/3's counterexample, reproduced in
//     multicast.go) and is achievable for broadcast.
//   - Extensions of §4.2 and §5: reduce and personalized all-to-all,
//     collections of DAGs, and the send-OR-receive port model.
//
// Every Solve* function returns exact rational activity variables: the
// LPs go through pkg/steady/lp, whose answer is always certified in
// rational arithmetic. There are two LP builders behind the paper's
// problems — the task-flow LP of masterslave.go (every port model,
// multiport and fixed-wiring cards supply only their port rows) and the
// commodity-flow LP of scatter.go (scatter, multicast, broadcast,
// reduce and all-to-all supply only their commodities and coupling) —
// and each has one independent verifier, reached through Check,
// CheckMultiport and CheckCards, that re-validates the paper's
// equations (port constraints, conservation laws, throughput) on the
// returned solution with code that shares nothing with the builders.
// A TreePacking is re-verified by CheckPacking; the two DAG solvers
// (dag.go) have no verifier of their own.
package core

import (
	"fmt"
	"strconv"
	"sync"

	"repro/pkg/steady/lp"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

// PortModel is the platform's communication model (§2 base model or
// the §5.1.1 shared port), under the names the LP builders use.
type PortModel = platform.PortModel

const (
	SendAndReceive = platform.SendAndReceive
	SendOrReceive  = platform.SendOrReceive
)

// A variant of the task-flow LP is a pair of these: portRows adds its
// port constraints over the edge activity variables of the model being
// built, named by nm (see names), portCheck verifies the same
// constraints on concrete activity values (see solveTaskFlow and
// MasterSlave.check).
type (
	portRows  func(m *lp.Model, p *platform.Platform, sVar []lp.Var, nm *names)
	portCheck func(p *platform.Platform, s []rat.Rat) error
)

// onePortRows and onePortCheck are the pair of the §2 / §5.1.1 models.
func onePortRows(pm PortModel) portRows {
	return func(m *lp.Model, p *platform.Platform, sVar []lp.Var, nm *names) {
		addOnePortConstraints(m, p, sVar, pm, nm)
	}
}

func onePortCheck(pm PortModel) portCheck {
	return func(p *platform.Platform, s []rat.Rat) error { return checkOnePort(p, s, pm) }
}

// models recycles the storage of the LPs this package builds. Every
// builder takes its model from here, and every solve path that reads all
// it keeps out of the Solution — the task-flow LP and its port variants,
// the commodity-flow LP behind scatter, multicast, broadcast, reduce and
// all-to-all, and tree packing — hands the model back through
// solveModel: at n=48 a master-slave model's blocks are ≈ 50 KB a
// request would otherwise leave to the collector. A model handed out by
// MasterSlaveModel or a test's builder call simply never comes back.
var models = sync.Pool{New: func() any { return lp.NewModel() }}

// newModel is an empty model, recycled when the pool has one.
func newModel() *lp.Model { return models.Get().(*lp.Model) }

// solveModel solves m under opts, then empties it (lp.Model.Reset) into
// the pool: the Solution holds nothing of m, and nothing may read m
// again — unless the solve was interrupted: emptying it is time past
// the deadline, so the collector takes it.
func solveModel(m *lp.Model, opts *lp.Options) (*lp.Solution, error) {
	sol, err := m.SolveOpts(opts)
	if !stopped(opts) {
		m.Reset()
		models.Put(m)
	}
	return sol, err
}

// stopped reports that opts.Interrupt is closed; nil opts never stop.
func stopped(opts *lp.Options) bool {
	if opts != nil {
		select {
		case <-opts.Interrupt:
			return true
		default:
		}
	}
	return false
}

// names writes the names of an LP's variables and rows, and a nil
// *names writes none. Every builder runs with nil for the model a solve
// reads, and installs itself, run with a names, as that model's namer
// (lp.Model.NameBy): the second run happens only when something reads a
// name — WriteLP, an error text, a test — so a served solve builds no
// string. A builder that names a variable or row must do it through
// these methods, whose arguments cost nothing to pass.
type names struct{ p *platform.Platform }

// node is kind[name of node i].
func (n *names) node(kind string, i int) string {
	if n == nil {
		return ""
	}
	return kind + "[" + n.p.Name(i) + "]"
}

// card is kind[name of node i#card].
func (n *names) card(kind string, i, card int) string {
	if n == nil {
		return ""
	}
	return kind + "[" + n.p.Name(i) + "#" + strconv.Itoa(card) + "]"
}

// edgeVarName names the activity variable of edge e, s[from->to#e]. It
// is built by concatenation, where fmt was a twentieth of a cold n=48
// miss while every model named its variables as it declared them.
func (n *names) edgeVarName(e int) string {
	if n == nil {
		return ""
	}
	ed := n.p.Edge(e)
	return "s[" + n.p.Name(ed.From) + "->" + n.p.Name(ed.To) + "#" + strconv.Itoa(e) + "]"
}

// f is fmt.Sprintf(format, a...).
func (n *names) f(format string, a ...int) string {
	if n == nil {
		return ""
	}
	args := make([]any, len(a))
	for i, v := range a {
		args[i] = v
	}
	return fmt.Sprintf(format, args...)
}

// addOnePortConstraints adds the model's port constraints for every
// node: either separate in/out budgets (third and fourth equations of
// SSMS) or a combined budget under SendOrReceive.
func addOnePortConstraints(m *lp.Model, p *platform.Platform, sVar []lp.Var, pm PortModel, nm *names) {
	one := rat.One()
	var ex lp.Expr // one row at a time: the model copies it
	for i := 0; i < p.NumNodes(); i++ {
		switch pm {
		case SendAndReceive:
			ex = ex[:0]
			for _, e := range p.OutEdges(i) {
				ex = ex.PlusInt(sVar[e], 1)
			}
			if len(ex) > 0 {
				m.Le(nm.node("out-port", i), ex, one)
			}
			ex = ex[:0]
			for _, e := range p.InEdges(i) {
				ex = ex.PlusInt(sVar[e], 1)
			}
			if len(ex) > 0 {
				m.Le(nm.node("in-port", i), ex, one)
			}
		case SendOrReceive:
			ex = ex[:0]
			for _, e := range p.OutEdges(i) {
				ex = ex.PlusInt(sVar[e], 1)
			}
			for _, e := range p.InEdges(i) {
				ex = ex.PlusInt(sVar[e], 1)
			}
			if len(ex) > 0 {
				m.Le(nm.node("port", i), ex, one)
			}
		}
	}
}

// checkOnePort verifies the port constraints on concrete activity
// values (fraction of time spent on each edge).
func checkOnePort(p *platform.Platform, s []rat.Rat, pm PortModel) error {
	one := rat.One()
	for i := 0; i < p.NumNodes(); i++ {
		out, in := rat.Zero(), rat.Zero()
		for _, e := range p.OutEdges(i) {
			out = out.Add(s[e])
		}
		for _, e := range p.InEdges(i) {
			in = in.Add(s[e])
		}
		switch pm {
		case SendAndReceive:
			if out.Cmp(one) > 0 {
				return fmt.Errorf("core: node %s sends %v > 1", p.Name(i), out)
			}
			if in.Cmp(one) > 0 {
				return fmt.Errorf("core: node %s receives %v > 1", p.Name(i), in)
			}
		case SendOrReceive:
			if out.Add(in).Cmp(one) > 0 {
				return fmt.Errorf("core: node %s uses port %v > 1", p.Name(i), out.Add(in))
			}
		}
	}
	return nil
}
