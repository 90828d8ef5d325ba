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

	"repro/internal/coloring"
	"repro/internal/core"
	"repro/pkg/steady/lp"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

// Slot is one time slice of the periodic communication orchestration:
// all listed platform edges are simultaneously busy for Dur time;
// they form a matching on (sender, receiver) pairs.
type Slot struct {
	Dur   rat.Rat
	Edges []int
}

// Periodic is the compact (polynomial-size) description of one period
// of an asymptotically optimal master-slave schedule.
type Periodic struct {
	P      *platform.Platform
	Master int

	// Period is the integer period T.
	Period *big.Int
	// EdgeTasks[e] is the integral number of task files crossing edge
	// e each period.
	EdgeTasks []*big.Int
	// ComputeTasks[i] is the integral number of tasks node i computes
	// each period.
	ComputeTasks []*big.Int
	// TasksPerPeriod = T * ntask(G) = sum of ComputeTasks.
	TasksPerPeriod *big.Int
	// Slots is the communication orchestration; the sum of durations
	// is Delta <= T.
	Slots []Slot
	// Throughput is the steady-state rate TasksPerPeriod / Period.
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

// reconstruct is the §4.1 construction over a verified solution and
// the wiring its port constraints were stated for: period, integer
// counts, then slots that are matchings over the wiring's ports.
func reconstruct(ms *core.MasterSlave, w wiring) (*Periodic, error) {
	p := ms.P
	T := period(ms)

	per := &Periodic{
		P:            p,
		Master:       ms.Master,
		Period:       T,
		EdgeTasks:    make([]*big.Int, p.NumEdges()),
		ComputeTasks: make([]*big.Int, p.NumNodes()),
		ports:        w,
	}
	for e := 0; e < p.NumEdges(); e++ {
		n, ok := rat.ScaleInt(ms.TasksPerUnit(e), T)
		if !ok {
			return nil, fmt.Errorf("schedule: edge %d count not integral", e)
		}
		per.EdgeTasks[e] = n
	}
	total := new(big.Int)
	for i := 0; i < p.NumNodes(); i++ {
		n, ok := rat.ScaleInt(ms.ComputeRate(i), T)
		if !ok {
			return nil, fmt.Errorf("schedule: node %d count not integral", i)
		}
		per.ComputeTasks[i] = n
		total.Add(total, n)
	}
	per.TasksPerPeriod = total
	per.Throughput = ms.Throughput

	slots, err := orchestrate(w, func(e int) rat.Rat {
		// Busy time of edge e per period: n_e * c_e = T * s_e.
		return ms.S[e].MulBigInt(T)
	})
	if err != nil {
		return nil, err
	}
	per.Slots = slots

	if err := per.Check(); err != nil {
		return nil, fmt.Errorf("schedule: reconstruction invalid: %w", err)
	}
	return per, nil
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

// Check independently verifies all invariants of the periodic
// schedule: integral counts, integer conservation, per-edge slot time
// exactly n_e*c_e, slots that are matchings over the ports of the
// schedule's own wiring, total slot time <= T, compute time <= T, and
// throughput = counts / period.
func (per *Periodic) Check() error {
	p := per.P
	TR := rat.FromBig(new(big.Rat).SetInt(per.Period))

	// Conservation in integers.
	for i := 0; i < p.NumNodes(); i++ {
		if i == per.Master {
			continue
		}
		in := new(big.Int)
		for _, e := range p.InEdges(i) {
			in.Add(in, per.EdgeTasks[e])
		}
		out := new(big.Int).Set(per.ComputeTasks[i])
		for _, e := range p.OutEdges(i) {
			out.Add(out, per.EdgeTasks[e])
		}
		if in.Cmp(out) != 0 {
			return fmt.Errorf("schedule: integer conservation violated at %s: %v != %v",
				p.Name(i), in, out)
		}
	}
	// Master receives nothing.
	for _, e := range p.InEdges(per.Master) {
		if per.EdgeTasks[e].Sign() != 0 {
			return fmt.Errorf("schedule: master receives on edge %d", e)
		}
	}
	// Slot time per edge == n_e * c_e; matching property; total <= T.
	err := checkSlots(per.ports, per.Slots, per.Period, func(e int) rat.Rat {
		return rat.FromBig(new(big.Rat).SetInt(per.EdgeTasks[e])).Mul(p.Edge(e).C)
	})
	if err != nil {
		return err
	}
	// Compute fits in the period.
	for i := 0; i < p.NumNodes(); i++ {
		if per.ComputeTasks[i].Sign() == 0 {
			continue
		}
		if !p.CanCompute(i) {
			return fmt.Errorf("schedule: forwarder %s computes", p.Name(i))
		}
		t := rat.FromBig(new(big.Rat).SetInt(per.ComputeTasks[i])).Mul(p.Weight(i).Val)
		if t.Cmp(TR) > 0 {
			return fmt.Errorf("schedule: node %s computes %v > period", p.Name(i), t)
		}
	}
	// Throughput consistency.
	tp := rat.FromBig(new(big.Rat).SetFrac(per.TasksPerPeriod, per.Period))
	if !tp.Equal(per.Throughput) {
		return fmt.Errorf("schedule: throughput %v != counts ratio %v", per.Throughput, tp)
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
	g := &Periodic{
		P:              per.P,
		Master:         per.Master,
		Period:         new(big.Int).Mul(per.Period, M),
		EdgeTasks:      make([]*big.Int, len(per.EdgeTasks)),
		ComputeTasks:   make([]*big.Int, len(per.ComputeTasks)),
		TasksPerPeriod: new(big.Int).Mul(per.TasksPerPeriod, M),
		Throughput:     per.Throughput,
		ports:          per.ports,
	}
	for e, n := range per.EdgeTasks {
		g.EdgeTasks[e] = new(big.Int).Mul(n, M)
	}
	for i, n := range per.ComputeTasks {
		g.ComputeTasks[i] = new(big.Int).Mul(n, M)
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
// period is stretched by the start-up extension: tasks / (T + ext).
func (per *Periodic) EffectiveThroughput(startup func(e int) rat.Rat) rat.Rat {
	T := rat.FromBig(new(big.Rat).SetInt(per.Period))
	tasks := rat.FromBig(new(big.Rat).SetInt(per.TasksPerPeriod))
	return tasks.Div(T.Add(per.StartupExtension(startup)))
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

	per := &Periodic{
		P:            p,
		Master:       ms.Master,
		Period:       PB,
		EdgeTasks:    make([]*big.Int, p.NumEdges()),
		ComputeTasks: make([]*big.Int, p.NumNodes()),
		ports:        onePort(p),
	}
	total := new(big.Int)
	for e := range fe {
		v := sol.Value(fe[e])
		if !v.IsInt() {
			return nil, fmt.Errorf("schedule: fixed-period count for edge %d not integral: %v", e, v)
		}
		per.EdgeTasks[e] = v.Floor()
	}
	for i := range bi {
		v := sol.Value(bi[i])
		if !v.IsInt() {
			return nil, fmt.Errorf("schedule: fixed-period count for node %d not integral: %v", i, v)
		}
		per.ComputeTasks[i] = v.Floor()
		total.Add(total, per.ComputeTasks[i])
	}
	per.TasksPerPeriod = total
	per.Throughput = rat.FromBig(new(big.Rat).SetFrac(total, PB))

	slots, err := orchestrate(per.ports, func(e int) rat.Rat {
		return rat.FromBig(new(big.Rat).SetInt(per.EdgeTasks[e])).Mul(p.Edge(e).C)
	})
	if err != nil {
		return nil, err
	}
	per.Slots = slots
	if err := per.Check(); err != nil {
		return nil, fmt.Errorf("schedule: fixed-period schedule invalid: %w", err)
	}
	return per, nil
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

// String renders a compact description of the period.
func (per *Periodic) String() string {
	return fmt.Sprintf("period T=%v, %v tasks/period (rate %v), %d comm slots",
		per.Period, per.TasksPerPeriod, per.Throughput, len(per.Slots))
}
