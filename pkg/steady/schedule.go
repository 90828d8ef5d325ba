package steady

import (
	"fmt"
	"math/big"

	"repro/internal/core"
	"repro/internal/schedule"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
	sim "repro/pkg/steady/sim/event"
)

// Slot is one time slice of a reconstructed periodic schedule: the
// listed links are simultaneously busy for Dur time and form a
// matching on (sender, receiver) pairs.
type Slot struct {
	Dur rat.Rat
	// Links are the (from, to) node-name pairs active in the slot.
	Links [][2]string
}

// Schedule is the facade view of a reconstructed periodic schedule
// (§4 of the paper): a compact, polynomial-size description of one
// period that achieves the LP throughput asymptotically.
type Schedule struct {
	// Summary is the one-line rendering of the underlying schedule
	// (period, per-period work, slot count).
	Summary string
	// Slots is the communication orchestration; the durations sum to
	// at most one period.
	Slots []Slot
	// Throughput is the schedule's steady-state rate, equal to the LP
	// optimum.
	Throughput rat.Rat

	// periodic is the underlying master-slave schedule, retained so
	// Simulate can execute it; nil for the other problems.
	periodic *schedule.Periodic
}

// Period returns the integer period T of a reconstructed masterslave
// schedule (nil for the other problems, whose facade schedules carry
// only slots and throughput). The returned value is a copy.
func (s *Schedule) Period() *big.Int {
	if s.periodic == nil {
		return nil
	}
	return new(big.Int).Set(s.periodic.Period)
}

// TasksPerPeriod returns T * ntask(G), the integral number of tasks
// one period completes in steady state (nil for non-masterslave
// schedules). The returned value is a copy.
func (s *Schedule) TasksPerPeriod() *big.Int {
	if s.periodic == nil {
		return nil
	}
	return new(big.Int).Set(s.periodic.TasksPerPeriod)
}

// Grouped returns the m-period grouping of §5.2: the period becomes
// m*T and every slot and count is scaled by m, so the number of
// communication rounds per (longer) period is unchanged and per-round
// start-up costs are amortized over m periods' worth of data. It is
// available for masterslave schedules only.
func (s *Schedule) Grouped(m int64) (*Schedule, error) {
	if s.periodic == nil {
		return nil, fmt.Errorf("steady: only masterslave schedules support grouping")
	}
	if m < 1 {
		return nil, fmt.Errorf("steady: grouping factor %d must be >= 1", m)
	}
	g := s.periodic.Grouped(m)
	return &Schedule{
		Summary:    g.String(),
		Slots:      facadeSlots(g.P, g.Slots),
		Throughput: g.Throughput,
		periodic:   g,
	}, nil
}

// StartupExtension returns the extra time one period costs when every
// communication round pays a start-up (§5.2): each slot is extended
// by the largest start-up cost among its links, since transfers
// within a slot run in parallel. startup maps a link (by endpoint
// names) to its per-round cost. Masterslave schedules only.
func (s *Schedule) StartupExtension(startup func(from, to string) rat.Rat) (rat.Rat, error) {
	if s.periodic == nil {
		return rat.Zero(), fmt.Errorf("steady: only masterslave schedules model start-up costs")
	}
	return s.periodic.StartupExtension(s.edgeStartup(startup)), nil
}

// EffectiveThroughput returns the steady-state throughput when each
// period is stretched by its start-up extension: tasks / (T + ext).
// Grouping first (see Grouped) amortizes the extension, which is the
// §5.2 story: effective throughput climbs back toward the LP optimum
// as m grows. Masterslave schedules only.
func (s *Schedule) EffectiveThroughput(startup func(from, to string) rat.Rat) (rat.Rat, error) {
	if s.periodic == nil {
		return rat.Zero(), fmt.Errorf("steady: only masterslave schedules model start-up costs")
	}
	return s.periodic.EffectiveThroughput(s.edgeStartup(startup)), nil
}

// edgeStartup adapts a by-name startup cost to the internal by-edge-
// index form.
func (s *Schedule) edgeStartup(startup func(from, to string) rat.Rat) func(int) rat.Rat {
	p := s.periodic.P
	return func(e int) rat.Rat {
		ed := p.Edge(e)
		return startup(p.Name(ed.From), p.Name(ed.To))
	}
}

// Simulation is the outcome of executing a reconstructed schedule
// from cold buffers: §4.2's asymptotic-optimality claim made
// concrete. Steady state is reached within depth(G) periods, after
// which every period completes exactly T·ntask tasks.
type Simulation struct {
	// DonePerPeriod[p] is the number of tasks completed in period p.
	DonePerPeriod []*big.Int
	// SteadyAfter is the first period whose completion count reaches
	// the steady-state per-period total (-1 if never reached).
	SteadyAfter int64
}

// Simulate executes the schedule for the given number of periods,
// starting from cold buffers, and reports per-period completions.
// It is available for masterslave schedules only — for every other
// problem (and for scenario-driven simulation in general) use
// pkg/steady/sim, which replays any solver's schedule via
// Result.Replay.
func (s *Schedule) Simulate(periods int64) (*Simulation, error) {
	if s.periodic == nil {
		return nil, fmt.Errorf("steady: only masterslave schedules are simulatable")
	}
	spec, err := s.periodic.EventSpec()
	if err != nil {
		return nil, err
	}
	st, err := sim.RunPeriodic(spec, periods, sim.PeriodicOptions{PerPeriod: true})
	if err != nil {
		return nil, err
	}
	return &Simulation{DonePerPeriod: st.DonePerPeriod, SteadyAfter: st.SteadyAfter}, nil
}

// GreedyEvaluation quantifies §5.1.1: under the send-OR-receive port
// model reconstruction requires edge-coloring an arbitrary graph
// (NP-hard), so only a greedy decomposition is evaluated, reporting
// how much of the LP bound it achieves.
type GreedyEvaluation struct {
	// Bound is the LP optimum under the shared-port model.
	Bound rat.Rat
	// Achieved is the throughput of the greedy schedule (<= Bound).
	Achieved rat.Rat
	// Slots is the number of matchings in the greedy decomposition.
	Slots int
}

// Reconstruct turns the result into a concrete periodic schedule
// following the §4.1 construction. It is available under the base
// send-and-receive model for every problem with a schedule of its own;
// a bound is deliberately not reconstructible (the multicast bound's
// unachievability is the point of §4.3; Replay runs a bound's
// companion), and the send-or-receive model only admits the greedy
// evaluation (see EvaluateGreedy).
func (r *Result) Reconstruct() (*Schedule, error) {
	if r.Model != SendAndReceive {
		return nil, fmt.Errorf("steady: no exact reconstruction under the %s model; use EvaluateGreedy", r.Model)
	}
	switch sol := r.raw.(type) {
	case *core.MasterSlave:
		per, err := schedule.Reconstruct(sol)
		if err != nil {
			return nil, err
		}
		return &Schedule{
			Summary:    per.String(),
			Slots:      facadeSlots(r.Platform, per.Slots),
			Throughput: per.Throughput,
			periodic:   per,
		}, nil
	case *core.Scatter:
		if r.row.companion != nil {
			return nil, fmt.Errorf("steady: %s results have bound semantics and no schedule", r.Problem)
		}
		sp, err := schedule.ReconstructScatter(sol)
		if err != nil {
			return nil, err
		}
		return &Schedule{
			Summary:    sp.String(),
			Slots:      facadeSlots(r.Platform, sp.Slots),
			Throughput: sp.Throughput,
		}, nil
	case *core.TreePacking:
		mp, err := schedule.ReconstructTreePacking(sol)
		if err != nil {
			return nil, err
		}
		return &Schedule{
			Summary:    mp.String(),
			Slots:      facadeSlots(r.Platform, mp.Slots),
			Throughput: mp.Throughput,
		}, nil
	default:
		return nil, fmt.Errorf("steady: %s results are not reconstructible", r.Problem)
	}
}

// EvaluateGreedy reconstructs a schedule for a send-or-receive
// masterslave result with the greedy general-graph coloring and
// reports achieved versus bound throughput (the E9 gap).
func (r *Result) EvaluateGreedy() (*GreedyEvaluation, error) {
	ms, ok := r.raw.(*core.MasterSlave)
	if !ok {
		return nil, fmt.Errorf("steady: greedy evaluation applies to masterslave results only")
	}
	if r.Model != SendOrReceive {
		return nil, fmt.Errorf("steady: greedy evaluation applies to the send-or-receive model; use Reconstruct")
	}
	ev, err := schedule.EvaluateSendRecv(ms)
	if err != nil {
		return nil, err
	}
	return &GreedyEvaluation{Bound: ev.Bound, Achieved: ev.Achieved, Slots: ev.Slots}, nil
}

// facadeSlots renders a schedule's slots in facade form: links by
// endpoint names instead of edge indices of p.
func facadeSlots(p *platform.Platform, slots []schedule.Slot) []Slot {
	out := make([]Slot, len(slots))
	for i, s := range slots {
		out[i].Dur = s.Dur
		out[i].Links = make([][2]string, len(s.Edges))
		for j, e := range s.Edges {
			ed := p.Edge(e)
			out[i].Links[j] = [2]string{p.Name(ed.From), p.Name(ed.To)}
		}
	}
	return out
}
