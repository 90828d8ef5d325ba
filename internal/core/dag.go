package core

import (
	"fmt"

	"repro/pkg/steady/lp"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

// DAG describes one instance of the task graph whose independent
// copies are scheduled in the §4.2 generalization ("collections of
// identical DAGs ... the same suite of algorithmic kernels, but using
// different data samples").
type DAG struct {
	// Ops[k] is the computational weight of task type k: node i
	// spends Ops[k]*w_i time per execution.
	Ops []rat.Rat
	// Files are the dependence edges; a file of size Size is produced
	// by From and consumed by To, costing Size*c_ij per traversal of
	// platform edge (i,j).
	Files []File
}

// File is a dependence edge of the DAG.
type File struct {
	From, To int
	Size     rat.Rat
}

// Validate checks DAG structural invariants (acyclicity, ranges).
func (d *DAG) Validate() error {
	if len(d.Ops) == 0 {
		return fmt.Errorf("core: DAG has no tasks")
	}
	for k, o := range d.Ops {
		if o.Sign() <= 0 {
			return fmt.Errorf("core: task %d has non-positive weight", k)
		}
	}
	adj := make([][]int, len(d.Ops))
	for i, f := range d.Files {
		if f.From < 0 || f.From >= len(d.Ops) || f.To < 0 || f.To >= len(d.Ops) || f.From == f.To {
			return fmt.Errorf("core: file %d has bad endpoints", i)
		}
		if f.Size.Sign() <= 0 {
			return fmt.Errorf("core: file %d has non-positive size", i)
		}
		adj[f.From] = append(adj[f.From], f.To)
	}
	// Cycle check by DFS coloring.
	state := make([]int, len(d.Ops)) // 0 new, 1 active, 2 done
	var visit func(int) error
	visit = func(u int) error {
		state[u] = 1
		for _, v := range adj[u] {
			switch state[v] {
			case 1:
				return fmt.Errorf("core: DAG has a cycle through task %d", v)
			case 0:
				if err := visit(v); err != nil {
					return err
				}
			}
		}
		state[u] = 2
		return nil
	}
	for u := range d.Ops {
		if state[u] == 0 {
			if err := visit(u); err != nil {
				return err
			}
		}
	}
	return nil
}

// ChainDAG builds a linear pipeline T0 -> T1 -> ... with unit weights
// and sizes.
func ChainDAG(n int) *DAG {
	d := &DAG{}
	for i := 0; i < n; i++ {
		d.Ops = append(d.Ops, rat.One())
		if i > 0 {
			d.Files = append(d.Files, File{From: i - 1, To: i, Size: rat.One()})
		}
	}
	return d
}

// ForkJoinDAG builds source -> {n branches} -> sink with unit
// weights/sizes.
func ForkJoinDAG(branches int) *DAG {
	d := &DAG{Ops: []rat.Rat{rat.One()}}
	for b := 0; b < branches; b++ {
		d.Ops = append(d.Ops, rat.One())
		d.Files = append(d.Files, File{From: 0, To: 1 + b, Size: rat.One()})
	}
	sink := len(d.Ops)
	d.Ops = append(d.Ops, rat.One())
	for b := 0; b < branches; b++ {
		d.Files = append(d.Files, File{From: 1 + b, To: sink, Size: rat.One()})
	}
	return d
}

// DAGRate is the solution of the rate-based steady-state LP for DAG
// collections. It is an upper bound on the achievable throughput: the
// LP conserves file *types* independently and may pair files from
// different DAG instances, which is only known to be realizable for
// DAGs with a polynomial number of simple paths ([6, 4]; the general
// case is the paper's concluding open problem).
type DAGRate struct {
	P *platform.Platform
	D *DAG

	Throughput rat.Rat
	// Cons[i][k] is the rate at which node i executes task type k.
	Cons [][]rat.Rat
	// Flow[e][l] is the rate of file type l crossing platform edge e.
	Flow [][]rat.Rat
	// S[e] is the busy fraction of edge e.
	S []rat.Rat
}

// SolveDAGRateBound builds and solves the rate LP:
//
//	maximize  TP
//	s.t.      per node:  sum_k cons(i,k)*ops_k*w_i <= 1
//	          per edge:  s_e = sum_l flow(e,l)*size_l*c_e, one-port sums <= 1
//	          per (node, file l = k1->k2):
//	              in-flow + cons(i,k1) = out-flow + cons(i,k2)
//	          per task k: sum_i cons(i,k) = TP
//
// There is no distinguished source node: inputs are produced by the
// DAG's entry tasks, wherever the LP runs them.
func SolveDAGRateBound(p *platform.Platform, d *DAG) (*DAGRate, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	dm := buildDAGRateModel(p, d, nil)
	sol, err := dm.m.Solve()
	if err != nil {
		return nil, fmt.Errorf("core: DAG rate LP: %w", err)
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("core: DAG rate LP %v", sol.Status)
	}

	nN, nE, nK, nL := p.NumNodes(), p.NumEdges(), len(d.Ops), len(d.Files)
	out := &DAGRate{
		P: p, D: d,
		Throughput: sol.Objective,
		Cons:       make([][]rat.Rat, nN),
		Flow:       make([][]rat.Rat, nE),
		S:          make([]rat.Rat, nE),
	}
	for i := 0; i < nN; i++ {
		out.Cons[i] = make([]rat.Rat, nK)
		if dm.hasCons[i] {
			for k := 0; k < nK; k++ {
				out.Cons[i][k] = sol.Value(dm.cons[i][k])
			}
		}
	}
	for e := 0; e < nE; e++ {
		out.S[e] = sol.Value(dm.sVar[e])
		out.Flow[e] = make([]rat.Rat, nL)
		for l := 0; l < nL; l++ {
			out.Flow[e][l] = sol.Value(dm.flow[e][l])
		}
	}
	return out, nil
}

// dagRateModel is the built-but-unsolved rate LP of SolveDAGRateBound.
type dagRateModel struct {
	m       *lp.Model
	cons    [][]lp.Var
	hasCons []bool
	flow    [][]lp.Var
	sVar    []lp.Var
}

// buildDAGRateModel constructs the rate LP of a valid DAG without
// solving it. With a nil nm the model is named on demand (see names).
func buildDAGRateModel(p *platform.Platform, d *DAG, nm *names) *dagRateModel {
	m := lp.NewModel()
	if nm == nil {
		m.NameBy(func() *lp.Model { return buildDAGRateModel(p, d, &names{p}).m })
	}
	one := rat.One()
	nN, nE, nK, nL := p.NumNodes(), p.NumEdges(), len(d.Ops), len(d.Files)

	cons := make([][]lp.Var, nN)
	hasCons := make([]bool, nN)
	for i := 0; i < nN; i++ {
		if !p.CanCompute(i) {
			continue
		}
		hasCons[i] = true
		cons[i] = make([]lp.Var, nK)
		for k := 0; k < nK; k++ {
			cons[i][k] = m.Var(nm.f("cons[n%d,k%d]", i, k))
		}
	}
	flow := make([][]lp.Var, nE)
	sVar := make([]lp.Var, nE)
	for e := 0; e < nE; e++ {
		sVar[e] = m.VarRange(nm.f("s[e%d]", e), one)
		flow[e] = make([]lp.Var, nL)
		for l := 0; l < nL; l++ {
			flow[e][l] = m.Var(nm.f("flow[e%d,l%d]", e, l))
		}
	}
	tp := m.Var(nm.f("TP"))
	ex := lp.Expr{}.PlusInt(tp, 1) // the objective, then each row in turn: the model copies it
	m.Objective(lp.Maximize, ex)

	// Compute-time budget.
	for i := 0; i < nN; i++ {
		if !hasCons[i] {
			continue
		}
		ex = ex[:0]
		for k := 0; k < nK; k++ {
			ex = ex.Plus(cons[i][k], d.Ops[k].Mul(p.Weight(i).Val))
		}
		m.Le(nm.f("cpu[n%d]", i), ex, one)
	}

	// Edge busy time and one-port.
	for e := 0; e < nE; e++ {
		c := p.Edge(e).C
		ex = ex[:0].PlusInt(sVar[e], -1)
		for l := 0; l < nL; l++ {
			ex = ex.Plus(flow[e][l], d.Files[l].Size.Mul(c))
		}
		m.Eq(nm.f("busy[e%d]", e), ex, rat.Zero())
	}
	addOnePortConstraints(m, p, sVar, SendAndReceive, nm)

	// File conservation.
	for i := 0; i < nN; i++ {
		for l, f := range d.Files {
			ex = ex[:0]
			for _, e := range p.InEdges(i) {
				ex = ex.PlusInt(flow[e][l], 1)
			}
			for _, e := range p.OutEdges(i) {
				ex = ex.PlusInt(flow[e][l], -1)
			}
			if hasCons[i] {
				ex = ex.PlusInt(cons[i][f.From], 1)
				ex = ex.PlusInt(cons[i][f.To], -1)
			}
			if len(ex) == 0 {
				continue
			}
			m.Eq(nm.f("file[n%d,l%d]", i, l), ex, rat.Zero())
		}
	}

	// Uniform throughput across task types.
	for k := 0; k < nK; k++ {
		ex = ex[:0].PlusInt(tp, -1)
		for i := 0; i < nN; i++ {
			if hasCons[i] {
				ex = ex.PlusInt(cons[i][k], 1)
			}
		}
		m.Eq(nm.f("rate[k%d]", k), ex, rat.Zero())
	}
	return &dagRateModel{m: m, cons: cons, hasCons: hasCons, flow: flow, sVar: sVar}
}

// maxAllocations caps the allocation enumeration of
// SolveDAGAllocation.
const maxAllocations = 1 << 20

// DAGAllocation is the achievable counterpart of DAGRate: it
// enumerates whole-DAG allocations (each task type mapped to one
// node, files routed along shortest paths) and packs them by an LP,
// so every scheduled instance is internally consistent. Restricting
// to explicit allocations is the [6, 4] strategy for DAGs with
// polynomially many paths.
type DAGAllocation struct {
	P *platform.Platform
	D *DAG

	Throughput rat.Rat
	// Allocs holds the used allocations (task -> node) with rates.
	Allocs []AllocRate
	// NumAllocs is the number of enumerated candidates.
	NumAllocs int
}

// AllocRate is one allocation executed at the given rate.
type AllocRate struct {
	Assign []int
	Rate   rat.Rat
}

// SolveDAGAllocation enumerates allocations and solves the packing LP
//
//	maximize sum_a x_a
//	s.t.     per node: compute time <= 1, send time <= 1, recv time <= 1.
func SolveDAGAllocation(p *platform.Platform, d *DAG) (*DAGAllocation, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	allocs, usages, err := enumerateAllocations(p, d)
	if err != nil {
		return nil, err
	}
	m, x := buildAllocationModel(p.NumNodes(), usages, nil)
	sol, err := m.Solve()
	if err != nil {
		return nil, fmt.Errorf("core: DAG allocation LP: %w", err)
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("core: DAG allocation LP %v", sol.Status)
	}
	out := &DAGAllocation{
		P: p, D: d,
		Throughput: sol.Objective,
		NumAllocs:  len(allocs),
	}
	for a := range allocs {
		r := sol.Value(x[a])
		if r.Sign() > 0 {
			out.Allocs = append(out.Allocs, AllocRate{Assign: allocs[a], Rate: r})
		}
	}
	return out, nil
}

// enumerateAllocations lists every allocation of a valid DAG's tasks to
// compute nodes whose files can be routed, with what it costs each node.
func enumerateAllocations(p *platform.Platform, d *DAG) ([][]int, []usage, error) {
	nN, nK := p.NumNodes(), len(d.Ops)

	// Compute nodes only.
	var computeNodes []int
	for i := 0; i < nN; i++ {
		if p.CanCompute(i) {
			computeNodes = append(computeNodes, i)
		}
	}
	if len(computeNodes) == 0 {
		return nil, nil, fmt.Errorf("core: no compute node")
	}
	total := 1
	for k := 0; k < nK; k++ {
		total *= len(computeNodes)
		if total > maxAllocations {
			return nil, nil, fmt.Errorf("core: allocation enumeration exceeds %d", maxAllocations)
		}
	}

	// Precompute shortest paths between compute node pairs.
	paths := make(map[[2]int][]int)
	for _, u := range computeNodes {
		for _, v := range computeNodes {
			if u != v {
				paths[[2]int{u, v}] = p.ShortestPath(u, v)
			}
		}
	}

	var allocs [][]int
	var usages []usage

	assign := make([]int, nK)
	var rec func(k int)
	rec = func(k int) {
		if k == nK {
			u := usage{
				cpu:  make([]rat.Rat, nN),
				send: make([]rat.Rat, nN),
				recv: make([]rat.Rat, nN),
			}
			for kk, node := range assign {
				u.cpu[node] = u.cpu[node].Add(d.Ops[kk].Mul(p.Weight(node).Val))
			}
			ok := true
			for _, f := range d.Files {
				a, b := assign[f.From], assign[f.To]
				if a == b {
					continue
				}
				path := paths[[2]int{a, b}]
				if path == nil {
					ok = false
					break
				}
				for _, e := range path {
					ed := p.Edge(e)
					t := f.Size.Mul(ed.C)
					u.send[ed.From] = u.send[ed.From].Add(t)
					u.recv[ed.To] = u.recv[ed.To].Add(t)
				}
			}
			if ok {
				allocs = append(allocs, append([]int(nil), assign...))
				usages = append(usages, u)
			}
			return
		}
		for _, node := range computeNodes {
			assign[k] = node
			rec(k + 1)
		}
	}
	rec(0)
	if len(allocs) == 0 {
		return nil, nil, fmt.Errorf("core: no feasible allocation (disconnected compute nodes)")
	}
	return allocs, usages, nil
}

// usage is what one execution of an allocation costs each of the nN
// nodes: compute, send and receive time.
type usage struct {
	cpu  []rat.Rat // per node
	send []rat.Rat
	recv []rat.Rat
}

// buildAllocationModel constructs the packing LP of SolveDAGAllocation
// over allocations with the given usages, without solving it. With a
// nil nm the model is named on demand (see names).
func buildAllocationModel(nN int, usages []usage, nm *names) (*lp.Model, []lp.Var) {
	m := lp.NewModel()
	if nm == nil {
		m.NameBy(func() *lp.Model {
			named, _ := buildAllocationModel(nN, usages, &names{})
			return named
		})
	}
	one := rat.One()
	x := make([]lp.Var, len(usages))
	obj := make(lp.Expr, 0, len(usages))
	for a := range usages {
		x[a] = m.Var(nm.f("x[a%d]", a))
		obj = obj.PlusInt(x[a], 1)
	}
	m.Objective(lp.Maximize, obj)
	cpuEx, sendEx, recvEx := obj[:0], lp.Expr(nil), lp.Expr(nil) // one node's rows at a time: the model copies them
	for i := 0; i < nN; i++ {
		cpuEx, sendEx, recvEx = cpuEx[:0], sendEx[:0], recvEx[:0]
		for a := range usages {
			if usages[a].cpu[i].Sign() > 0 {
				cpuEx = cpuEx.Plus(x[a], usages[a].cpu[i])
			}
			if usages[a].send[i].Sign() > 0 {
				sendEx = sendEx.Plus(x[a], usages[a].send[i])
			}
			if usages[a].recv[i].Sign() > 0 {
				recvEx = recvEx.Plus(x[a], usages[a].recv[i])
			}
		}
		if len(cpuEx) > 0 {
			m.Le(nm.f("cpu[n%d]", i), cpuEx, one)
		}
		if len(sendEx) > 0 {
			m.Le(nm.f("send[n%d]", i), sendEx, one)
		}
		if len(recvEx) > 0 {
			m.Le(nm.f("recv[n%d]", i), recvEx, one)
		}
	}
	return m, x
}
