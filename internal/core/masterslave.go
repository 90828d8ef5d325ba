package core

import (
	"fmt"
	"slices"
	"sync"

	"repro/pkg/steady/lp"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

// MasterSlave is the solved steady-state master-slave program SSMS(G)
// of §3.1: the master initially holds a large collection of
// independent identical tasks; the solution says which fraction of
// each time-unit every node computes (Alpha) and every edge carries
// task files (S).
type MasterSlave struct {
	P      *platform.Platform
	Master int
	Model  PortModel

	// Throughput is ntask(G) = sum over nodes of alpha_i / w_i, the
	// optimal number of tasks processed per time-unit in steady state.
	Throughput rat.Rat
	// Alpha[i] is the fraction of time node i spends computing.
	Alpha []rat.Rat
	// S[e] is the fraction of time edge e's sender spends sending
	// task files along e.
	S []rat.Rat

	// LP reports how the underlying solve went (pivot counts, search
	// path).
	LP lp.SolveInfo
}

// TasksPerUnit returns, for edge e, the (rational) number of task
// files crossing e per time-unit: s_e / c_e.
func (ms *MasterSlave) TasksPerUnit(e int) rat.Rat {
	return ms.S[e].Div(ms.P.Edge(e).C)
}

// ComputeRate returns node i's tasks computed per time-unit:
// alpha_i / w_i (zero for forwarder-only nodes).
func (ms *MasterSlave) ComputeRate(i int) rat.Rat {
	w := ms.P.Weight(i)
	if w.Inf {
		return rat.Zero()
	}
	return ms.Alpha[i].Div(w.Val)
}

// SolveMasterSlave builds and solves SSMS(G) under the base
// send-and-receive model.
func SolveMasterSlave(p *platform.Platform, master int) (*MasterSlave, error) {
	return SolveMasterSlavePort(p, master, SendAndReceive)
}

// SolveMasterSlavePort builds and solves SSMS(G) under the given port
// model. The LP is exactly the one displayed in §3.1:
//
//	maximize   ntask(G) = sum_i alpha_i / w_i
//	subject to 0 <= alpha_i <= 1
//	           0 <= s_ij <= 1
//	           sum_j s_ij <= 1                  (one-port, out)
//	           sum_j s_ji <= 1                  (one-port, in)
//	           s_jm = 0                         (master receives nothing)
//	           sum_j s_ji/c_ji = alpha_i/w_i + sum_j s_ij/c_ij  (i != m)
func SolveMasterSlavePort(p *platform.Platform, master int, pm PortModel) (*MasterSlave, error) {
	return SolveMasterSlavePortOpts(p, master, pm, nil)
}

// SolveMasterSlavePortOpts is SolveMasterSlavePort under explicit LP
// options: an interrupt and a metrics registry.
func SolveMasterSlavePortOpts(p *platform.Platform, master int, pm PortModel, opts *lp.Options) (*MasterSlave, error) {
	return solveTaskFlow(p, master, pm, onePortRows(pm), onePortCheck(pm), opts)
}

// solveTaskFlow builds SSMS(G) with the given port rows, solves it,
// reads the activity variables back and verifies them under the given
// port check. Every variant of the problem — the two port models here,
// multiport.go's aggregated cards, cards.go's fixed wiring — is a call
// of it that supplies only that pair. pm is the model recorded on the
// solution (what a later Check verifies it under).
func solveTaskFlow(p *platform.Platform, master int, pm PortModel, rows portRows, ports portCheck, opts *lp.Options) (*MasterSlave, error) {
	mm, err := buildMasterSlaveModel(p, master, rows, nil)
	if err != nil {
		return nil, err
	}
	defer mm.release()
	sol, err := solveModel(mm.m, opts)
	if err != nil {
		return nil, fmt.Errorf("core: master-slave LP: %w", err)
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("core: master-slave LP %v", sol.Status)
	}

	// The s variables are declared one per edge, in edge order, after
	// the alphas, so S is their stretch of the solution's values, not a
	// copy. Alpha is copied: a forwarder has no alpha variable.
	first := lp.Var(0)
	if len(mm.sVar) > 0 {
		first = mm.sVar[0]
	}
	values := sol.Values()[first : int(first)+p.NumEdges() : int(first)+p.NumEdges()]
	ms := &MasterSlave{
		P:          p,
		Master:     master,
		Model:      pm,
		Throughput: sol.Objective,
		Alpha:      make([]rat.Rat, p.NumNodes()),
		S:          values,
		LP:         sol.Info,
	}
	for i := 0; i < p.NumNodes(); i++ {
		if mm.hasAlpha[i] {
			ms.Alpha[i] = sol.Value(mm.alpha[i])
		}
	}
	if err := ms.check(ports); err != nil {
		return nil, fmt.Errorf("core: solver returned invalid solution: %w", err)
	}
	return ms, nil
}

// MasterSlaveModel returns the §3.1 LP of p without solving it, for
// callers that solve it their own way (pkg/steady/lp's tests hold its
// float walk to its exact walk and count its install's factors).
func MasterSlaveModel(p *platform.Platform, master int, pm PortModel) (*lp.Model, error) {
	mm, err := buildMasterSlaveModel(p, master, onePortRows(pm), nil)
	if err != nil {
		return nil, err
	}
	m := mm.m
	mm.release()
	return m, nil
}

// msModel is the built-but-unsolved SSMS(G) linear program, exposing
// the variable handles the solver (and the parity/golden tests) need,
// and the builder's row scratch.
type msModel struct {
	m        *lp.Model
	alpha    []lp.Var
	hasAlpha []bool
	sVar     []lp.Var
	ex       lp.Expr
}

// msModels recycles the handles and the scratch around the models
// pool: what a solve reads of them it reads before it returns.
var msModels = sync.Pool{New: func() any { return new(msModel) }}

// release hands mm back to msModels, holding neither its model nor a
// rational of its scratch. A test's builder call simply never does.
func (mm *msModel) release() {
	mm.m = nil
	clear(mm.ex[:cap(mm.ex)])
	msModels.Put(mm)
}

// sized is buf at length n, zeroed, grown only past its capacity.
func sized[E any](buf []E, n int) []E {
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf)
	return buf
}

// buildMasterSlaveModel constructs the §3.1 LP without solving it; the
// port rows are the caller's. Variables and rows are declared in a
// fixed order — alpha by node, s by edge, objective, port rows,
// no-recv-master, conservation — which fixes the pivot path (the
// entering rule breaks ties by column index) and with it every golden
// vertex, pivot count and served byte. With a nil
// nm the model is named on demand (see names).
func buildMasterSlaveModel(p *platform.Platform, master int, ports portRows, nm *names) (*msModel, error) {
	if master < 0 || master >= p.NumNodes() {
		return nil, fmt.Errorf("core: master index %d out of range", master)
	}
	m := newModel()
	if nm == nil {
		m.NameBy(func() *lp.Model {
			named, _ := buildMasterSlaveModel(p, master, ports, &names{p}) // built once already: no error
			nm := named.m
			named.release()
			return nm
		})
	}
	one := rat.One()

	mm := msModels.Get().(*msModel)
	mm.m = m
	alpha := sized(mm.alpha, p.NumNodes())
	hasAlpha := sized(mm.hasAlpha, p.NumNodes())
	mm.alpha, mm.hasAlpha = alpha, hasAlpha
	nAlpha := 0
	for i := 0; i < p.NumNodes(); i++ {
		if p.CanCompute(i) {
			alpha[i] = m.VarRange(nm.node("alpha", i), one)
			hasAlpha[i] = true
			nAlpha++
		}
	}
	sVar := sized(mm.sVar, p.NumEdges())
	mm.sVar = sVar
	for e := 0; e < p.NumEdges(); e++ {
		sVar[e] = m.VarRange(nm.edgeVarName(e), one)
	}

	// Objective: sum alpha_i / w_i. ex holds it, then each row in turn:
	// the model copies what it is given.
	ex := slices.Grow(mm.ex[:0], nAlpha)
	for i := 0; i < p.NumNodes(); i++ {
		if hasAlpha[i] {
			ex = ex.Plus(alpha[i], p.Weight(i).Val.Inv())
		}
	}
	if len(ex) == 0 {
		mm.release()
		return nil, fmt.Errorf("core: no node can compute")
	}
	m.Objective(lp.Maximize, ex)

	ports(m, p, sVar, nm)

	// The master does not receive anything.
	for _, e := range p.InEdges(master) {
		ex = ex[:0].PlusInt(sVar[e], 1)
		m.Eq(nm.f("no-recv-master[%d]", e), ex, rat.Zero())
	}

	// Conservation law at every non-master node:
	// received rate = compute rate + forwarded rate.
	for i := 0; i < p.NumNodes(); i++ {
		if i == master {
			continue
		}
		ex = ex[:0]
		for _, ei := range p.InEdges(i) {
			ex = ex.Plus(sVar[ei], p.Edge(ei).C.Inv())
		}
		if hasAlpha[i] {
			ex = ex.Plus(alpha[i], p.Weight(i).Val.Inv().Neg())
		}
		for _, eo := range p.OutEdges(i) {
			ex = ex.Plus(sVar[eo], p.Edge(eo).C.Inv().Neg())
		}
		if len(ex) == 0 {
			continue
		}
		m.Eq(nm.node("conserve", i), ex, rat.Zero())
	}
	mm.ex = ex
	return mm, nil
}

// Check re-verifies every SSMS equation on the stored activity
// variables using independent code (not the LP solver), under the
// solution's own port model.
func (ms *MasterSlave) Check() error { return ms.check(onePortCheck(ms.Model)) }

// check is the one verifier of the task-flow LP: activity ranges, the
// variant's port constraints, master receives nothing, conservation at
// every other node, throughput = sum of compute rates.
func (ms *MasterSlave) check(ports portCheck) error {
	p := ms.P
	one := rat.One()
	for i, a := range ms.Alpha {
		if a.Sign() < 0 || a.Cmp(one) > 0 {
			return fmt.Errorf("core: alpha[%s] = %v outside [0,1]", p.Name(i), a)
		}
		if !p.CanCompute(i) && !a.IsZero() {
			return fmt.Errorf("core: forwarder %s computes", p.Name(i))
		}
	}
	for e, s := range ms.S {
		if s.Sign() < 0 || s.Cmp(one) > 0 {
			return fmt.Errorf("core: s[%d] = %v outside [0,1]", e, s)
		}
	}
	if err := ports(p, ms.S); err != nil {
		return err
	}
	for _, e := range p.InEdges(ms.Master) {
		if !ms.S[e].IsZero() {
			return fmt.Errorf("core: master receives on edge %d", e)
		}
	}
	for i := 0; i < p.NumNodes(); i++ {
		if i == ms.Master {
			continue
		}
		in := rat.Zero()
		for _, e := range p.InEdges(i) {
			in = in.Add(ms.TasksPerUnit(e))
		}
		out := ms.ComputeRate(i)
		for _, e := range p.OutEdges(i) {
			out = out.Add(ms.TasksPerUnit(e))
		}
		if !in.Equal(out) {
			return fmt.Errorf("core: conservation violated at %s: in %v != out %v",
				p.Name(i), in, out)
		}
	}
	tp := rat.Zero()
	for i := range ms.Alpha {
		tp = tp.Add(ms.ComputeRate(i))
	}
	if !tp.Equal(ms.Throughput) {
		return fmt.Errorf("core: throughput %v != sum of compute rates %v", ms.Throughput, tp)
	}
	return nil
}

// StarThroughput returns the closed-form optimal steady-state
// throughput for a single-level star (master + workers), used to
// cross-check the LP: the master computes at rate 1/w_m and
// distributes its unit of sending time to workers by increasing link
// cost c_j (a fractional knapsack), each worker being capped at its
// compute rate 1/w_j.
func StarThroughput(p *platform.Platform, master int) (rat.Rat, error) {
	if len(p.InEdges(master)) != 0 {
		return rat.Zero(), fmt.Errorf("core: not a star rooted at %d", master)
	}
	type worker struct {
		c, rate rat.Rat
	}
	var ws []worker
	for _, e := range p.OutEdges(master) {
		ed := p.Edge(e)
		if len(p.OutEdges(ed.To)) != 0 {
			return rat.Zero(), fmt.Errorf("core: node %s is not a leaf", p.Name(ed.To))
		}
		w := p.Weight(ed.To)
		if w.Inf {
			continue // a forwarder leaf contributes nothing
		}
		ws = append(ws, worker{c: ed.C, rate: w.Val.Inv()})
	}
	// Sort by increasing c (cheapest links first): insertion sort is
	// fine at star sizes.
	for i := 1; i < len(ws); i++ {
		for j := i; j > 0 && ws[j].c.Less(ws[j-1].c); j-- {
			ws[j], ws[j-1] = ws[j-1], ws[j]
		}
	}
	tp := rat.Zero()
	if p.CanCompute(master) {
		tp = p.Weight(master).Val.Inv()
	}
	budget := rat.One() // one unit of master sending time
	for _, w := range ws {
		if budget.Sign() <= 0 {
			break
		}
		need := w.c.Mul(w.rate) // time to feed the worker at full rate
		if need.Cmp(budget) <= 0 {
			tp = tp.Add(w.rate)
			budget = budget.Sub(need)
		} else {
			tp = tp.Add(budget.Div(w.c))
			budget = rat.Zero()
		}
	}
	return tp, nil
}
