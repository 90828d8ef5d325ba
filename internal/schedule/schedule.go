// Package schedule reconstructs concrete periodic schedules from the
// steady-state LP solutions of internal/core, following §4 of the
// paper:
//
//  1. the period T is the lcm of the denominators of the activity
//     variables, so all per-period task/message counts are integers;
//  2. the communications of one period form a weighted bipartite
//     graph (send ports on the left, receive ports on the right)
//     which internal/coloring decomposes into at most |E| + 2p
//     matchings — the slots of the periodic schedule;
//  3. grouping m consecutive periods amortizes start-up costs (§5.2);
//  4. truncating counts to a fixed period bounds the loss (§5.4).
package schedule

import (
	"fmt"
	"math/big"
	"slices"

	"repro/internal/coloring"
	"repro/internal/core"
	"repro/pkg/steady/lp"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
	"repro/pkg/steady/sim/event"
)

// Slot is one time slice of the periodic communication orchestration:
// all listed platform edges are simultaneously busy for Dur time;
// they form a matching on (sender, receiver) pairs.
type Slot struct {
	Dur   rat.Rat
	Edges []int
}

// Periodic is the compact (polynomial-size) description of one period
// of an asymptotically optimal steady-state schedule, the one object
// §4.1–§4.3 build for every problem: an integer period, integral
// per-period counts for each commodity, and the slots orchestrating
// their communications.
type Periodic struct {
	P *platform.Platform

	// Period is the integer period T.
	Period *big.Int
	// Commodities hold the integral per-period counts in the event
	// core's own form, so a schedule is its own replay input:
	//   - master-slave (any wiring, or a fixed period): one flow
	//     commodity "tasks" sourced at the master, EdgeCount[e] the task
	//     files crossing edge e and Consume[i] the tasks node i computes;
	//   - scatter and multicast-sum: one flow commodity "msg[<target>]"
	//     per target, with Sinks = {target};
	//   - tree packing: one Replicated commodity "tree#<i>" per tree,
	//     its Quota instances crossing each of its edges.
	Commodities []event.Commodity
	// OpsPerPeriod is what one steady period completes: the tasks
	// computed, the messages each target nets, or the multicast
	// instances over all trees.
	OpsPerPeriod *big.Int
	// Slots is the communication orchestration; the sum of durations
	// is Delta <= T.
	Slots []Slot
	// Throughput is the steady-state rate OpsPerPeriod / Period.
	Throughput rat.Rat

	// ports is the wiring the slots are matchings over; Check reads it.
	ports wiring
}

// wiring says which two nodes of the §4.1 bipartite graph every
// platform edge joins: send[e] is the send port it occupies at its
// source (a left node), recv[e] the receive port at its destination (a
// right node). A slot is a matching of that graph, so no port serves
// two transfers at once.
type wiring struct {
	send, recv   []int
	nSend, nRecv int
}

// cardWiring numbers the ports of a fixed card assignment (§5.1.2:
// "each node in the bipartite graph corresponds to a network card"):
// node i's send cards are consecutive left nodes, its receive cards
// consecutive right nodes.
func cardWiring(p *platform.Platform, a core.CardAssign) wiring {
	w := wiring{send: make([]int, p.NumEdges()), recv: make([]int, p.NumEdges())}
	sendBase := make([]int, p.NumNodes())
	recvBase := make([]int, p.NumNodes())
	for i := 0; i < p.NumNodes(); i++ {
		sendBase[i] = w.nSend
		w.nSend += a.Caps.Send[i]
		recvBase[i] = w.nRecv
		w.nRecv += a.Caps.Recv[i]
	}
	for e := 0; e < p.NumEdges(); e++ {
		ed := p.Edge(e)
		w.send[e] = sendBase[ed.From] + a.SendCard[e]
		w.recv[e] = recvBase[ed.To] + a.RecvCard[e]
	}
	return w
}

// onePort is the wiring of the base model: one card per node and
// direction, so the bipartite graph is (Psend_i, Precv_j) itself.
func onePort(p *platform.Platform) wiring {
	return cardWiring(p, core.RoundRobinCards(p, core.UniformPorts(p, 1)))
}

// Reconstruct turns a master-slave LP solution into a periodic
// schedule, performing the §4.1 construction.
func Reconstruct(ms *core.MasterSlave) (*Periodic, error) {
	if err := ms.Check(); err != nil {
		return nil, fmt.Errorf("schedule: refusing invalid solution: %w", err)
	}
	return reconstruct(ms, onePort(ms.P))
}

// period is the §4.1 period of a master-slave solution: the lcm of
// the denominators of every edge task rate s_e/c_e and compute rate
// alpha_i/w_i, so that all per-period counts are integers.
func period(ms *core.MasterSlave) *big.Int {
	p := ms.P
	var rates []rat.Rat
	for e := 0; e < p.NumEdges(); e++ {
		rates = append(rates, ms.TasksPerUnit(e))
	}
	for i := 0; i < p.NumNodes(); i++ {
		rates = append(rates, ms.ComputeRate(i))
	}
	return rat.DenLCM(rates...)
}

// reconstruct is the §4.1 construction over a verified master-slave
// solution and the wiring its port constraints were stated for: the
// period, then the integer counts.
func reconstruct(ms *core.MasterSlave, w wiring) (*Periodic, error) {
	p := ms.P
	T := period(ms)
	edge := make([]*big.Int, p.NumEdges())
	for e := range edge {
		n, ok := rat.ScaleInt(ms.TasksPerUnit(e), T)
		if !ok {
			return nil, fmt.Errorf("schedule: edge %d count not integral", e)
		}
		edge[e] = n
	}
	consume := make([]*big.Int, p.NumNodes())
	for i := range consume {
		n, ok := rat.ScaleInt(ms.ComputeRate(i), T)
		if !ok {
			return nil, fmt.Errorf("schedule: node %d count not integral", i)
		}
		consume[i] = n
	}
	tasks := taskCommodity(ms.Master, edge, consume)
	return build(p, T, w, []event.Commodity{tasks}, tasks.Quota, ms.Throughput)
}

// taskCommodity is the master-slave commodity: task files sourced at
// the master and consumed where they are computed. Its quota is what
// one period computes.
func taskCommodity(master int, edge, consume []*big.Int) event.Commodity {
	q := new(big.Int)
	for _, n := range consume {
		q.Add(q, n)
	}
	return event.Commodity{Name: "tasks", Source: master, EdgeCount: edge, Consume: consume, Quota: q}
}

// build is the §4.1 construction behind every front end, once the
// period and the integral per-commodity counts are known: it
// orchestrates each edge's busy time into matchings over the wiring
// and checks the result.
func build(p *platform.Platform, T *big.Int, w wiring, coms []event.Commodity, ops *big.Int, tp rat.Rat) (*Periodic, error) {
	per := &Periodic{P: p, Period: T, Commodities: coms, OpsPerPeriod: ops, Throughput: tp, ports: w}
	slots, err := orchestrate(w, per.busy)
	if err != nil {
		return nil, err
	}
	per.Slots = slots
	if err := per.Check(); err != nil {
		return nil, fmt.Errorf("schedule: reconstruction invalid: %w", err)
	}
	return per, nil
}

// busy is edge e's communication time per period: every commodity's
// count on it, each unit taking c_e.
func (per *Periodic) busy(e int) rat.Rat {
	n := new(big.Int)
	for _, c := range per.Commodities {
		n.Add(n, c.EdgeCount[e])
	}
	return per.P.Edge(e).C.MulBigInt(n)
}

// orchestrate builds the §4.1 bipartite graph over the wiring's ports
// with the given per-edge busy times and decomposes it into matchings.
func orchestrate(w wiring, busy func(e int) rat.Rat) ([]Slot, error) {
	var edges []coloring.Edge
	for e := range w.send {
		t := busy(e)
		if t.Sign() < 0 {
			return nil, fmt.Errorf("schedule: negative busy time on edge %d", e)
		}
		if t.Sign() == 0 {
			continue
		}
		edges = append(edges, coloring.Edge{L: w.send[e], R: w.recv[e], W: t, ID: e})
	}
	ms, _, err := coloring.DecomposeBipartite(w.nSend, w.nRecv, edges)
	if err != nil {
		return nil, fmt.Errorf("schedule: orchestration: %w", err)
	}
	slots := make([]Slot, 0, len(ms))
	for _, m := range ms {
		s := Slot{Dur: m.Dur}
		for _, e := range m.Edges {
			s.Edges = append(s.Edges, e.ID)
		}
		slots = append(slots, s)
	}
	return slots, nil
}

// checkSlots verifies a communication orchestration independently of
// how it was built: every slot is a matching over the wiring's ports,
// every edge gets exactly want(e) slot time, and the slots fit in the
// period T.
func checkSlots(w wiring, slots []Slot, T *big.Int, want func(e int) rat.Rat) error {
	perEdge := make([]rat.Rat, len(w.send))
	total := rat.Zero()
	for si, s := range slots {
		sender := map[int]bool{}
		recver := map[int]bool{}
		for _, e := range s.Edges {
			if sender[w.send[e]] || recver[w.recv[e]] {
				return fmt.Errorf("schedule: slot %d uses a port twice", si)
			}
			sender[w.send[e]], recver[w.recv[e]] = true, true
			perEdge[e] = perEdge[e].Add(s.Dur)
		}
		total = total.Add(s.Dur)
	}
	for e := range perEdge {
		if need := want(e); !perEdge[e].Equal(need) {
			return fmt.Errorf("schedule: edge %d gets %v slot time, needs %v", e, perEdge[e], need)
		}
	}
	if TR := rat.FromBig(new(big.Rat).SetInt(T)); total.Cmp(TR) > 0 {
		return fmt.Errorf("schedule: slots total %v exceed period %v", total, TR)
	}
	return nil
}

// Check independently verifies every invariant of the periodic
// schedule, each on the commodities it concerns:
//   - tasks: integer conservation with consumption, the master
//     receiving nothing, compute only on nodes that can and within T,
//     and a quota equal to the tasks computed;
//   - per-target flows: conservation away from the source and the
//     sink, which nets the quota, and a quota of OpsPerPeriod;
//   - trees: each carries its quota on every edge it uses and reaches
//     every target;
//   - the task and tree quotas sum to OpsPerPeriod;
//   - for every shape, the slots are matchings over the schedule's own
//     wiring, each edge gets exactly its busy time, the slots fit in
//     T, and Throughput = OpsPerPeriod / T.
func (per *Periodic) Check() error {
	summed, sum := false, new(big.Int)
	for k := range per.Commodities {
		c := &per.Commodities[k]
		var err error
		switch {
		case c.Replicated:
			err = per.checkTree(c)
		case c.Consume != nil:
			err = per.checkTasks(c)
		default:
			err = per.checkDelivery(c)
		}
		if err != nil {
			return err
		}
		if c.Replicated || c.Consume != nil {
			summed = true
			sum.Add(sum, c.Quota)
		}
	}
	if summed && sum.Cmp(per.OpsPerPeriod) != 0 {
		return fmt.Errorf("schedule: quotas sum to %v, not the %v ops/period", sum, per.OpsPerPeriod)
	}
	if err := checkSlots(per.ports, per.Slots, per.Period, per.busy); err != nil {
		return err
	}
	tp := rat.FromBig(new(big.Rat).SetFrac(per.OpsPerPeriod, per.Period))
	if !tp.Equal(per.Throughput) {
		return fmt.Errorf("schedule: throughput %v != counts ratio %v", per.Throughput, tp)
	}
	return nil
}

// flow returns what commodity c brings into node i and sends out of it
// each period.
func flow(p *platform.Platform, c *event.Commodity, i int) (in, out *big.Int) {
	in, out = new(big.Int), new(big.Int)
	for _, e := range p.InEdges(i) {
		in.Add(in, c.EdgeCount[e])
	}
	for _, e := range p.OutEdges(i) {
		out.Add(out, c.EdgeCount[e])
	}
	return in, out
}

// checkTasks checks a consumed flow: integer conservation with
// consumption away from the source, which receives nothing, compute
// only on nodes that can and within the period, and a quota equal to
// what the period computes.
func (per *Periodic) checkTasks(c *event.Commodity) error {
	p := per.P
	T := rat.FromBig(new(big.Rat).SetInt(per.Period))
	done := new(big.Int)
	for i, n := range c.Consume {
		done.Add(done, n)
		if in, out := flow(p, c, i); i != c.Source && in.Cmp(out.Add(out, n)) != 0 {
			return fmt.Errorf("schedule: %s integer conservation violated at %s: %v != %v", c.Name, p.Name(i), in, out)
		}
		if n.Sign() == 0 {
			continue
		}
		if !p.CanCompute(i) {
			return fmt.Errorf("schedule: forwarder %s computes", p.Name(i))
		}
		if t := p.Weight(i).Val.MulBigInt(n); t.Cmp(T) > 0 {
			return fmt.Errorf("schedule: node %s computes %v > period", p.Name(i), t)
		}
	}
	for _, e := range p.InEdges(c.Source) {
		if c.EdgeCount[e].Sign() != 0 {
			return fmt.Errorf("schedule: master receives on edge %d", e)
		}
	}
	if done.Cmp(c.Quota) != 0 {
		return fmt.Errorf("schedule: %s computes %v per period, quota %v", c.Name, done, c.Quota)
	}
	return nil
}

// checkDelivery checks a per-target flow: integer conservation away
// from the source and the sinks, and a net delivery of the quota at
// each sink (net of the sink's own out-flow, as the LP's delivery
// equation counts it), which is the schedule's OpsPerPeriod.
func (per *Periodic) checkDelivery(c *event.Commodity) error {
	p := per.P
	for i := 0; i < p.NumNodes(); i++ {
		in, out := flow(p, c, i)
		switch {
		case slices.Contains(c.Sinks, i):
			if net := in.Sub(in, out); net.Cmp(c.Quota) != 0 {
				return fmt.Errorf("schedule: %s nets %v at %s, quota %v", c.Name, net, p.Name(i), c.Quota)
			}
		case i != c.Source && in.Cmp(out) != 0:
			return fmt.Errorf("schedule: %s conservation violated at %s: %v != %v", c.Name, p.Name(i), in, out)
		}
	}
	if c.Quota.Cmp(per.OpsPerPeriod) != 0 {
		return fmt.Errorf("schedule: %s quota %v, not the %v ops/period", c.Name, c.Quota, per.OpsPerPeriod)
	}
	return nil
}

// checkTree checks a replicated commodity: every edge it uses carries
// its quota of instances, and those edges reach every sink from the
// source.
func (per *Periodic) checkTree(c *event.Commodity) error {
	p := per.P
	reach := make([]bool, p.NumNodes())
	reach[c.Source] = true
	for grown := true; grown; {
		grown = false
		for e, n := range c.EdgeCount {
			if ed := p.Edge(e); n.Sign() != 0 && reach[ed.From] && !reach[ed.To] {
				reach[ed.To], grown = true, true
			}
		}
	}
	for e, n := range c.EdgeCount {
		if n.Sign() != 0 && n.Cmp(c.Quota) != 0 {
			return fmt.Errorf("schedule: %s carries %v instances on edge %d, quota %v", c.Name, n, e, c.Quota)
		}
	}
	for _, t := range c.Sinks {
		if !reach[t] {
			return fmt.Errorf("schedule: %s does not reach target %s", c.Name, p.Name(t))
		}
	}
	return nil
}

// Grouped returns the m-period grouping of §5.2: the period becomes
// m*T, every count is multiplied by m, and each slot's duration by m,
// so the number of communication rounds per (longer) period is
// unchanged and start-up costs are amortized.
func (per *Periodic) Grouped(m int64) *Periodic {
	if m < 1 {
		panic("schedule: grouping factor must be >= 1")
	}
	M := big.NewInt(m)
	scale := func(ns []*big.Int) []*big.Int {
		if ns == nil {
			return nil
		}
		out := make([]*big.Int, len(ns))
		for i, n := range ns {
			out[i] = new(big.Int).Mul(n, M)
		}
		return out
	}
	g := &Periodic{
		P:            per.P,
		Period:       new(big.Int).Mul(per.Period, M),
		OpsPerPeriod: new(big.Int).Mul(per.OpsPerPeriod, M),
		Throughput:   per.Throughput,
		ports:        per.ports,
	}
	for _, c := range per.Commodities {
		c.EdgeCount, c.Consume, c.Quota = scale(c.EdgeCount), scale(c.Consume), new(big.Int).Mul(c.Quota, M)
		g.Commodities = append(g.Commodities, c)
	}
	mr := rat.FromInt(m)
	for _, s := range per.Slots {
		g.Slots = append(g.Slots, Slot{Dur: s.Dur.Mul(mr), Edges: append([]int(nil), s.Edges...)})
	}
	return g
}

// StartupExtension returns the extra time one period costs when every
// communication round pays a start-up: each slot is extended by the
// largest start-up cost among its edges (transfers within a slot run
// in parallel). It is bounded by numSlots * maxStartup <= |E| * C,
// the paper's C|E| bound.
func (per *Periodic) StartupExtension(startup func(e int) rat.Rat) rat.Rat {
	ext := rat.Zero()
	for _, s := range per.Slots {
		m := rat.Zero()
		for _, e := range s.Edges {
			m = rat.Max(m, startup(e))
		}
		ext = ext.Add(m)
	}
	return ext
}

// EffectiveThroughput returns the steady-state throughput when each
// period is stretched by the start-up extension: ops / (T + ext).
func (per *Periodic) EffectiveThroughput(startup func(e int) rat.Rat) rat.Rat {
	T := rat.FromBig(new(big.Rat).SetInt(per.Period))
	ops := rat.FromBig(new(big.Rat).SetInt(per.OpsPerPeriod))
	return ops.Div(T.Add(per.StartupExtension(startup)))
}

// FixedPeriod computes the best periodic schedule whose period is the
// given integer P (§5.4): per-edge counts are bounded by
// floor(P*s_e/c_e) and per-node compute by floor(P*alpha_i/w_i), and
// a small flow LP re-balances conservation. Its throughput tends to
// ntask(G) as P grows.
func FixedPeriod(ms *core.MasterSlave, P int64) (*Periodic, error) {
	if P < 1 {
		return nil, fmt.Errorf("schedule: period must be >= 1")
	}
	p := ms.P
	PB := big.NewInt(P)
	m, fe, bi := fixedPeriodModel(ms, P, false)
	sol, err := m.Solve()
	if err != nil {
		return nil, fmt.Errorf("schedule: fixed-period LP: %w", err)
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("schedule: fixed-period LP %v", sol.Status)
	}

	edge := make([]*big.Int, p.NumEdges())
	for e := range fe {
		v := sol.Value(fe[e])
		if !v.IsInt() {
			return nil, fmt.Errorf("schedule: fixed-period count for edge %d not integral: %v", e, v)
		}
		edge[e] = v.Floor()
	}
	consume := make([]*big.Int, p.NumNodes())
	for i := range bi {
		v := sol.Value(bi[i])
		if !v.IsInt() {
			return nil, fmt.Errorf("schedule: fixed-period count for node %d not integral: %v", i, v)
		}
		consume[i] = v.Floor()
	}
	tasks := taskCommodity(ms.Master, edge, consume)
	return build(p, PB, onePort(p), []event.Commodity{tasks}, tasks.Quota, rat.FromBig(new(big.Rat).SetFrac(tasks.Quota, PB)))
}

// fixedPeriodModel is FixedPeriod's flow LP over counts (totally
// unimodular, so the simplex vertex is integral): maximize total compute
// subject to conservation, every count under its cap. Unless named, it
// is built without names and itself, named, is its namer (see
// lp.Model.NameBy).
func fixedPeriodModel(ms *core.MasterSlave, P int64, named bool) (m *lp.Model, fe, bi []lp.Var) {
	p, PR := ms.P, rat.FromInt(P)
	name := func(format string, i int) string {
		if !named {
			return ""
		}
		return fmt.Sprintf(format, i)
	}

	// Integral caps from the optimal rates.
	edgeCap := make([]*big.Int, p.NumEdges())
	for e := range edgeCap {
		edgeCap[e] = ms.TasksPerUnit(e).Mul(PR).Floor()
	}
	compCap := make([]*big.Int, p.NumNodes())
	for i := range compCap {
		compCap[i] = ms.ComputeRate(i).Mul(PR).Floor()
	}

	m = lp.NewModel()
	if !named {
		m.NameBy(func() *lp.Model {
			tw, _, _ := fixedPeriodModel(ms, P, true)
			return tw
		})
	}
	fe = make([]lp.Var, p.NumEdges())
	for e := range fe {
		fe[e] = m.VarRange(name("n[e%d]", e), rat.FromBig(new(big.Rat).SetInt(edgeCap[e])))
	}
	bi = make([]lp.Var, p.NumNodes())
	ex := make(lp.Expr, 0, len(bi)) // the objective, then each row in turn: the model copies it
	for i := range bi {
		bi[i] = m.VarRange(name("comp[n%d]", i), rat.FromBig(new(big.Rat).SetInt(compCap[i])))
		ex = ex.PlusInt(bi[i], 1)
	}
	m.Objective(lp.Maximize, ex)
	for i := 0; i < p.NumNodes(); i++ {
		if i == ms.Master {
			continue
		}
		ex = ex[:0].PlusInt(bi[i], -1)
		for _, e := range p.InEdges(i) {
			ex = ex.PlusInt(fe[e], 1)
		}
		for _, e := range p.OutEdges(i) {
			ex = ex.PlusInt(fe[e], -1)
		}
		m.Eq(name("conserve[n%d]", i), ex, rat.Zero())
	}
	return m, fe, bi
}

// String renders a compact description of the period, in the words
// of its shape: tasks, per-target messages, or trees.
func (per *Periodic) String() string {
	var c event.Commodity
	if len(per.Commodities) > 0 {
		c = per.Commodities[0]
	}
	switch {
	case c.Consume != nil:
		return fmt.Sprintf("period T=%v, %v tasks/period (rate %v), %d comm slots",
			per.Period, per.OpsPerPeriod, per.Throughput, len(per.Slots))
	case c.Replicated:
		return fmt.Sprintf("multicast period T=%v, %v ops/period (TP %v) over %d trees, %d comm slots",
			per.Period, per.OpsPerPeriod, per.Throughput, len(per.Commodities), len(per.Slots))
	default:
		return fmt.Sprintf("scatter period T=%v, %v ops/period (TP %v), %d comm slots",
			per.Period, per.OpsPerPeriod, per.Throughput, len(per.Slots))
	}
}
