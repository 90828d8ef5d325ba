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

	// LP reports how the underlying solve went (pivot counts, search
	// path).
	LP lp.SolveInfo
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
// (an interrupt and a metrics registry).
func SolveScatterPortOpts(p *platform.Platform, source int, targets []int, pm PortModel, opts *lp.Options) (*Scatter, error) {
	return solveDistribution(p, source, targets, pm, false, opts)
}

// solveDistribution solves the commodity-flow LP for K message types
// sharing one source — the scatter of §3.2, or with maxOperator the
// §3.3 bound behind multicast, broadcast and reduce: the per-edge
// coupling s_ij = sum_k send*c becomes send(i,j,k)*c_ij <= s_ij for
// every k, i.e. identical messages may share a transmission.
func solveDistribution(p *platform.Platform, source int, targets []int, pm PortModel, maxOperator bool, opts *lp.Options) (*Scatter, error) {
	fs, err := solveFlows(p, scatterFlows(source, targets), pm, maxOperator, opts)
	if err != nil {
		return nil, err
	}
	return &Scatter{
		P: p, Source: source, Targets: append([]int(nil), targets...),
		Model:      pm,
		Throughput: fs.tp,
		S:          fs.s,
		Send:       fs.send,
		LP:         fs.info,
	}, nil
}

// scatterFlows lists a scatter's commodities: one per target, all
// leaving the source.
func scatterFlows(source int, targets []int) [][2]int {
	flows := make([][2]int, len(targets))
	for k, t := range targets {
		flows[k] = [2]int{source, t}
	}
	return flows
}

// flowSolution is the read-back of a solved commodity-flow LP, in the
// shape Scatter and AllToAll both store it.
type flowSolution struct {
	tp   rat.Rat
	s    []rat.Rat
	send [][]rat.Rat // [edge][commodity]
	info lp.SolveInfo
}

// solveFlows builds the commodity-flow LP over the given (source,
// destination) commodities, solves it, reads the activity variables
// back and verifies them with checkFlows.
func solveFlows(p *platform.Platform, flows [][2]int, pm PortModel, maxOperator bool, opts *lp.Options) (*flowSolution, error) {
	dm, err := buildDistributionModel(p, flows, pm, maxOperator, opts, nil)
	if err != nil {
		return nil, err
	}
	sol, err := solveModel(dm.m, opts)
	if err != nil {
		return nil, fmt.Errorf("core: commodity-flow LP: %w", err)
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("core: commodity-flow LP %v", sol.Status)
	}

	nE := p.NumEdges()
	fs := &flowSolution{
		tp:   sol.Objective,
		s:    make([]rat.Rat, nE),
		send: make([][]rat.Rat, nE),
		info: sol.Info,
	}
	for e := 0; e < nE; e++ {
		fs.s[e] = sol.Value(dm.sVar[e])
		fs.send[e] = make([]rat.Rat, len(flows))
		for k := range flows {
			fs.send[e][k] = sol.Value(dm.send[e][k])
		}
	}
	if err := checkFlows(p, flows, pm, maxOperator, fs.tp, fs.s, fs.send); err != nil {
		return nil, fmt.Errorf("core: solver returned invalid flow solution: %w", err)
	}
	return fs, nil
}

// distModel is the built-but-unsolved commodity-flow LP, exposing the
// variable handles the solver (and the parity/golden tests) need.
type distModel struct {
	m    *lp.Model
	sVar []lp.Var
	send [][]lp.Var
}

// buildDistributionModel constructs the commodity-flow LP of §3.2 /
// §3.3 / §4.2 without solving it: commodity k ships TP messages per
// time-unit from flows[k][0] to flows[k][1]. A scatter is K
// commodities sharing a source, a personalized all-to-all one per
// ordered pair of participants. Variables and rows are declared in a
// fixed order — s, send, TP, one-port, coupling, conservation
// node-major, delivery — which fixes the pivot path (the entering rule
// breaks ties by column index) and with it every golden vertex, pivot
// count and served byte. With a nil nm the
// model is named on demand (see names). Between blocks of rows the
// build polls opts.Interrupt, and gives up with lp.ErrInterrupted.
func buildDistributionModel(p *platform.Platform, flows [][2]int, pm PortModel, maxOperator bool, opts *lp.Options, nm *names) (*distModel, error) {
	if len(flows) == 0 {
		return nil, fmt.Errorf("core: no (source, target) pair to serve")
	}
	seen := make(map[[2]int]bool)
	for _, f := range flows {
		for _, v := range f {
			if v < 0 || v >= p.NumNodes() {
				return nil, fmt.Errorf("core: node %d out of range", v)
			}
		}
		if f[0] == f[1] {
			return nil, fmt.Errorf("core: source cannot be a target (its messages never enter the network)")
		}
		if seen[f] {
			return nil, fmt.Errorf("core: duplicate target %d of source %d", f[1], f[0])
		}
		seen[f] = true
	}

	m := newModel()
	if nm == nil {
		m.NameBy(func() *lp.Model {
			named, _ := buildDistributionModel(p, flows, pm, maxOperator, nil, &names{p}) // built once already: no error
			return named.m
		})
	}
	one := rat.One()
	nE, nK := p.NumEdges(), len(flows)

	sVar := make([]lp.Var, nE)
	for e := 0; e < nE; e++ {
		sVar[e] = m.VarRange(nm.edgeVarName(e), one)
	}
	send, all := make([][]lp.Var, nE), make([]lp.Var, nE*nK)
	for e := 0; e < nE; e++ {
		if stopped(opts) {
			return nil, lp.ErrInterrupted
		}
		send[e] = all[e*nK : (e+1)*nK : (e+1)*nK]
		for k := 0; k < nK; k++ {
			send[e][k] = m.Var(nm.f("send[e%d,k%d]", e, k))
		}
	}
	tp := m.Var(nm.f("TP"))
	ex := make(lp.Expr, 0, nK+1).PlusInt(tp, 1) // the objective, then each row in turn: the model copies it
	m.Objective(lp.Maximize, ex)

	addOnePortConstraints(m, p, sVar, pm, nm)

	// Edge coupling: sum (scatter) or max (broadcast/multicast bound).
	for e := 0; e < nE; e++ {
		if stopped(opts) {
			return nil, lp.ErrInterrupted
		}
		c := p.Edge(e).C
		if maxOperator {
			for k := 0; k < nK; k++ {
				ex = ex[:0].Plus(send[e][k], c).PlusInt(sVar[e], -1)
				m.Le(nm.f("share[e%d,k%d]", e, k), ex, rat.Zero())
			}
		} else {
			ex = ex[:0].PlusInt(sVar[e], -1)
			for k := 0; k < nK; k++ {
				ex = ex.Plus(send[e][k], c)
			}
			m.Eq(nm.f("sum[e%d]", e), ex, rat.Zero())
		}
	}

	// Conservation: every node forwards what it receives, per type,
	// except the type's source (which injects) and its target (which
	// consumes).
	for i := 0; i < p.NumNodes(); i++ {
		if stopped(opts) {
			return nil, lp.ErrInterrupted
		}
		for k, f := range flows {
			if i == f[0] || i == f[1] {
				continue
			}
			ex = ex[:0]
			for _, e := range p.InEdges(i) {
				ex = ex.PlusInt(send[e][k], 1)
			}
			for _, e := range p.OutEdges(i) {
				ex = ex.PlusInt(send[e][k], -1)
			}
			if len(ex) == 0 {
				continue
			}
			m.Eq(nm.f("conserve[n%d,k%d]", i, k), ex, rat.Zero())
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
	for k, f := range flows {
		ex = ex[:0].PlusInt(tp, -1)
		for _, e := range p.InEdges(f[1]) {
			ex = ex.PlusInt(send[e][k], 1)
		}
		for _, e := range p.OutEdges(f[1]) {
			ex = ex.PlusInt(send[e][k], -1)
		}
		m.Eq(nm.f("deliver[k%d]", k), ex, rat.Zero())
	}
	return &distModel{m: m, sVar: sVar, send: send}, nil
}

// Check re-verifies the SSPS equations (sum semantics) independently.
func (sc *Scatter) Check() error { return sc.check(false) }

func (sc *Scatter) check(maxOperator bool) error {
	return checkFlows(sc.P, scatterFlows(sc.Source, sc.Targets), sc.Model, maxOperator, sc.Throughput, sc.S, sc.Send)
}

// checkFlows is the one verifier of the commodity-flow LP, independent
// of the builder: activity ranges and edge coupling, the port
// constraints, per-type conservation away from the type's endpoints,
// and net delivery of exactly tp at every type's target.
func checkFlows(p *platform.Platform, flows [][2]int, pm PortModel, maxOperator bool, tp rat.Rat, s []rat.Rat, send [][]rat.Rat) error {
	one := rat.One()
	for e, se := range s {
		if se.Sign() < 0 || se.Cmp(one) > 0 {
			return fmt.Errorf("core: s[%d] = %v outside [0,1]", e, se)
		}
		c := p.Edge(e).C
		if maxOperator {
			for k, f := range send[e] {
				if f.Sign() < 0 {
					return fmt.Errorf("core: send[e%d][k%d] negative", e, k)
				}
				if f.Mul(c).Cmp(se) > 0 {
					return fmt.Errorf("core: edge %d type %d exceeds shared time", e, k)
				}
			}
		} else {
			tot := rat.Zero()
			for k, f := range send[e] {
				if f.Sign() < 0 {
					return fmt.Errorf("core: send[e%d][k%d] negative", e, k)
				}
				tot = tot.Add(f.Mul(c))
			}
			if !tot.Equal(se) {
				return fmt.Errorf("core: edge %d: sum_k send*c = %v != s = %v", e, tot, se)
			}
		}
	}
	if err := checkOnePort(p, s, pm); err != nil {
		return err
	}
	for k, f := range flows {
		for i := 0; i < p.NumNodes(); i++ {
			if i == f[0] || i == f[1] {
				continue
			}
			in, out := rat.Zero(), rat.Zero()
			for _, e := range p.InEdges(i) {
				in = in.Add(send[e][k])
			}
			for _, e := range p.OutEdges(i) {
				out = out.Add(send[e][k])
			}
			if !in.Equal(out) {
				return fmt.Errorf("core: conservation violated at node %d type %d: %v != %v", i, k, in, out)
			}
		}
		got := rat.Zero()
		for _, e := range p.InEdges(f[1]) {
			got = got.Add(send[e][k])
		}
		for _, e := range p.OutEdges(f[1]) {
			got = got.Sub(send[e][k])
		}
		if !got.Equal(tp) {
			return fmt.Errorf("core: target %d of source %d nets %v != TP %v", f[1], f[0], got, tp)
		}
	}
	return nil
}
