package core

import (
	"fmt"

	"repro/pkg/steady/lp"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

// Scatter is the solved steady-state pipelined scatter program
// SSPS(G) of §3.2: Psource repeatedly sends distinct messages m_k to
// every target P_k; Send[e][k] is the fractional number of messages
// of type m_k crossing edge e per time-unit.
type Scatter struct {
	P       *platform.Platform
	Source  int
	Targets []int
	Model   PortModel

	// Throughput is TP: every target receives TP messages per
	// time-unit in steady state.
	Throughput rat.Rat
	// S[e] is the fraction of time edge e's sender spends sending.
	S []rat.Rat
	// Send[e][k] is send(i,j,k) for e = (i,j) and target index k.
	Send [][]rat.Rat

	// LP reports how the underlying solve went (pivot counts,
	// warm-start outcome) and Basis is the optimal basis, usable to
	// warm-start the LP of a structurally identical instance (same
	// node/edge counts and target list length).
	LP    lp.SolveInfo
	Basis *lp.Basis
}

// SolveScatter builds and solves SSPS(G) under the base model.
//
// The LP is the one displayed in §3.2:
//
//	maximize  TP
//	s.t.      0 <= s_ij <= 1
//	          sum_j s_ij <= 1, sum_j s_ji <= 1           (one-port)
//	          s_ij = sum_k send(i,j,k) * c_ij            (distinct messages add up)
//	          sum_j send(j,i,k) = sum_j send(i,j,k)      (i != source, i != P_k)
//	          sum_j send(j,k,k) - sum_j send(k,j,k) = TP (every target served, net)
//
// The delivery equation is enforced net of the target's own out-flow,
// so only messages genuinely originating at the source count (see the
// comment at the constraint).
func SolveScatter(p *platform.Platform, source int, targets []int) (*Scatter, error) {
	return solveDistribution(p, source, targets, SendAndReceive, false, nil)
}

// SolveScatterPort is SolveScatter under an explicit port model.
func SolveScatterPort(p *platform.Platform, source int, targets []int, pm PortModel) (*Scatter, error) {
	return solveDistribution(p, source, targets, pm, false, nil)
}

// SolveScatterPortOpts is SolveScatterPort under explicit LP options
// — the warm-start entry point for families of scatter instances.
func SolveScatterPortOpts(p *platform.Platform, source int, targets []int, pm PortModel, opts *lp.Options) (*Scatter, error) {
	return solveDistribution(p, source, targets, pm, false, opts)
}

// solveDistribution factors the common structure of the scatter LP
// (sumEdges=false is impossible; see broadcast.go) — when maxOperator
// is true the per-edge coupling s_ij = sum_k send*c becomes
// send(i,j,k)*c_ij <= s_ij for every k, i.e. identical messages may
// share a transmission (§3.3).
func solveDistribution(p *platform.Platform, source int, targets []int, pm PortModel, maxOperator bool, opts *lp.Options) (*Scatter, error) {
	dm, err := buildDistributionModel(p, source, targets, pm, maxOperator)
	if err != nil {
		return nil, err
	}
	m, sVar, send := dm.m, dm.sVar, dm.send
	nE, nK := p.NumEdges(), len(targets)

	sol, err := m.SolveOpts(opts)
	if err != nil {
		return nil, fmt.Errorf("core: scatter LP: %w", err)
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("core: scatter LP %v", sol.Status)
	}

	sc := &Scatter{
		P: p, Source: source, Targets: append([]int(nil), targets...),
		Model:      pm,
		Throughput: sol.Objective,
		S:          make([]rat.Rat, nE),
		Send:       make([][]rat.Rat, nE),
		LP:         sol.Info,
		Basis:      sol.Basis(),
	}
	for e := 0; e < nE; e++ {
		sc.S[e] = sol.Value(sVar[e])
		sc.Send[e] = make([]rat.Rat, nK)
		for k := 0; k < nK; k++ {
			sc.Send[e][k] = sol.Value(send[e][k])
		}
	}
	if err := sc.check(maxOperator); err != nil {
		return nil, fmt.Errorf("core: solver returned invalid scatter solution: %w", err)
	}
	return sc, nil
}

// distModel is the built-but-unsolved distribution LP (scatter or
// max-operator bound), exposing the variable handles the solver (and
// the parity/golden tests) need.
type distModel struct {
	m    *lp.Model
	sVar []lp.Var
	send [][]lp.Var
}

// buildDistributionModel constructs the §3.2/§3.3 LP without solving
// it.
func buildDistributionModel(p *platform.Platform, source int, targets []int, pm PortModel, maxOperator bool) (*distModel, error) {
	if source < 0 || source >= p.NumNodes() {
		return nil, fmt.Errorf("core: source %d out of range", source)
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("core: no targets")
	}
	isTarget := make(map[int]int) // node -> target index
	for k, t := range targets {
		if t < 0 || t >= p.NumNodes() {
			return nil, fmt.Errorf("core: target %d out of range", t)
		}
		if t == source {
			return nil, fmt.Errorf("core: source cannot be a target (its messages never enter the network)")
		}
		if _, dup := isTarget[t]; dup {
			return nil, fmt.Errorf("core: duplicate target %d", t)
		}
		isTarget[t] = k
	}

	m := lp.NewModel()
	one := rat.One()
	nE, nK := p.NumEdges(), len(targets)

	sVar := make([]lp.Var, nE)
	for e := 0; e < nE; e++ {
		sVar[e] = m.VarRange(edgeVarName(p, e), one)
	}
	send := make([][]lp.Var, nE)
	for e := 0; e < nE; e++ {
		send[e] = make([]lp.Var, nK)
		for k := 0; k < nK; k++ {
			send[e][k] = m.Var(fmt.Sprintf("send[e%d,k%d]", e, k))
		}
	}
	tp := m.Var("TP")
	m.Objective(lp.Maximize, lp.Expr{}.PlusInt(tp, 1))

	addOnePortConstraints(m, p, sVar, pm)

	// Edge coupling: sum (scatter) or max (broadcast/multicast bound).
	for e := 0; e < nE; e++ {
		c := p.Edge(e).C
		if maxOperator {
			for k := 0; k < nK; k++ {
				ex := lp.Expr{}.Plus(send[e][k], c).PlusInt(sVar[e], -1)
				m.Le(fmt.Sprintf("share[e%d,k%d]", e, k), ex, rat.Zero())
			}
		} else {
			ex := lp.Expr{}.PlusInt(sVar[e], -1)
			for k := 0; k < nK; k++ {
				ex = ex.Plus(send[e][k], c)
			}
			m.Eq(fmt.Sprintf("sum[e%d]", e), ex, rat.Zero())
		}
	}

	// Conservation: every node forwards what it receives, per type,
	// except the source (which injects) and the type's own target
	// (which consumes).
	for i := 0; i < p.NumNodes(); i++ {
		if i == source {
			continue
		}
		for k := 0; k < nK; k++ {
			if targets[k] == i {
				continue
			}
			ex := lp.Expr{}
			for _, e := range p.InEdges(i) {
				ex = ex.PlusInt(send[e][k], 1)
			}
			for _, e := range p.OutEdges(i) {
				ex = ex.PlusInt(send[e][k], -1)
			}
			if len(ex) == 0 {
				continue
			}
			m.Eq(fmt.Sprintf("conserve[n%d,k%d]", i, k), ex, rat.Zero())
		}
	}

	// Delivery: each target accumulates TP messages of its type net of
	// what it forwards. The net form matters: with deliveries counted
	// on in-edges alone, a circulation touching the target (allowed by
	// the relaxed conservation there) fabricates throughput that never
	// left the source, and the "certified" optimum overstates what any
	// real schedule can ship — the simulation subsystem caught exactly
	// this on Figure 1. With net delivery, flow decomposition forces
	// TP units of genuine source-to-target paths per time-unit.
	for k := 0; k < nK; k++ {
		ex := lp.Expr{}.PlusInt(tp, -1)
		for _, e := range p.InEdges(targets[k]) {
			ex = ex.PlusInt(send[e][k], 1)
		}
		for _, e := range p.OutEdges(targets[k]) {
			ex = ex.PlusInt(send[e][k], -1)
		}
		m.Eq(fmt.Sprintf("deliver[k%d]", k), ex, rat.Zero())
	}
	return &distModel{m: m, sVar: sVar, send: send}, nil
}

// Check re-verifies the SSPS equations (sum semantics) independently.
func (sc *Scatter) Check() error { return sc.check(false) }

func (sc *Scatter) check(maxOperator bool) error {
	p := sc.P
	one := rat.One()
	for e, s := range sc.S {
		if s.Sign() < 0 || s.Cmp(one) > 0 {
			return fmt.Errorf("core: s[%d] = %v outside [0,1]", e, s)
		}
		c := p.Edge(e).C
		if maxOperator {
			for k, f := range sc.Send[e] {
				if f.Sign() < 0 {
					return fmt.Errorf("core: send[e%d][k%d] negative", e, k)
				}
				if f.Mul(c).Cmp(s) > 0 {
					return fmt.Errorf("core: edge %d type %d exceeds shared time", e, k)
				}
			}
		} else {
			tot := rat.Zero()
			for k, f := range sc.Send[e] {
				if f.Sign() < 0 {
					return fmt.Errorf("core: send[e%d][k%d] negative", e, k)
				}
				tot = tot.Add(f.Mul(c))
			}
			if !tot.Equal(s) {
				return fmt.Errorf("core: edge %d: sum_k send*c = %v != s = %v", e, tot, s)
			}
		}
	}
	if err := checkOnePort(p, sc.S, sc.Model); err != nil {
		return err
	}
	for i := 0; i < p.NumNodes(); i++ {
		if i == sc.Source {
			continue
		}
		for k := range sc.Targets {
			if sc.Targets[k] == i {
				continue
			}
			in, out := rat.Zero(), rat.Zero()
			for _, e := range p.InEdges(i) {
				in = in.Add(sc.Send[e][k])
			}
			for _, e := range p.OutEdges(i) {
				out = out.Add(sc.Send[e][k])
			}
			if !in.Equal(out) {
				return fmt.Errorf("core: conservation violated at node %d type %d: %v != %v", i, k, in, out)
			}
		}
	}
	for k, t := range sc.Targets {
		got := rat.Zero()
		for _, e := range p.InEdges(t) {
			got = got.Add(sc.Send[e][k])
		}
		for _, e := range p.OutEdges(t) {
			got = got.Sub(sc.Send[e][k])
		}
		if !got.Equal(sc.Throughput) {
			return fmt.Errorf("core: target %d nets %v != TP %v", t, got, sc.Throughput)
		}
	}
	return nil
}
