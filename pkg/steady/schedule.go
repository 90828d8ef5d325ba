package steady

import (
	"errors"
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
// period that achieves the LP throughput asymptotically. Every
// problem's schedule is the same kind of object, so every method
// serves every schedule.
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

	// periodic is the underlying schedule; nil only in a zero Schedule.
	periodic *schedule.Periodic
}

// errNoSchedule answers a method called on a zero Schedule.
var errNoSchedule = errors.New("steady: empty schedule; use Result.Reconstruct")

func newSchedule(per *schedule.Periodic) *Schedule {
	return &Schedule{
		Summary:    per.String(),
		Slots:      facadeSlots(per.P, per.Slots),
		Throughput: per.Throughput,
		periodic:   per,
	}
}

// Period returns the integer period T of the schedule (nil for a zero
// Schedule). The returned value is a copy.
func (s *Schedule) Period() *big.Int {
	if s.periodic == nil {
		return nil
	}
	return new(big.Int).Set(s.periodic.Period)
}

// TasksPerPeriod returns the integral number of operations one
// steady-state period completes: T * ntask(G) tasks for masterslave,
// T * TP messages to each target for scatter and multicast-sum, and
// T * TP multicast instances over all trees for a tree packing (nil
// for a zero Schedule). The returned value is a copy. For scatter and
// multicast-sum it counts one target's messages: a steady
// Simulation.DonePerPeriod entry, which sums over the K targets, reads
// K * TasksPerPeriod(); for masterslave and a tree packing it reads
// TasksPerPeriod() itself.
func (s *Schedule) TasksPerPeriod() *big.Int {
	if s.periodic == nil {
		return nil
	}
	return new(big.Int).Set(s.periodic.OpsPerPeriod)
}

// Grouped returns the m-period grouping of §5.2: the period becomes
// m*T and every slot and count is scaled by m, so the number of
// communication rounds per (longer) period is unchanged and per-round
// start-up costs are amortized over m periods' worth of data.
func (s *Schedule) Grouped(m int64) (*Schedule, error) {
	if s.periodic == nil {
		return nil, errNoSchedule
	}
	if m < 1 {
		return nil, fmt.Errorf("steady: grouping factor %d must be >= 1", m)
	}
	return newSchedule(s.periodic.Grouped(m)), nil
}

// StartupExtension returns the extra time one period costs when every
// communication round pays a start-up (§5.2): each slot is extended
// by the largest start-up cost among its links, since transfers
// within a slot run in parallel. startup maps a link (by endpoint
// names) to its per-round cost.
func (s *Schedule) StartupExtension(startup func(from, to string) rat.Rat) (rat.Rat, error) {
	if s.periodic == nil {
		return rat.Zero(), errNoSchedule
	}
	return s.periodic.StartupExtension(s.edgeStartup(startup)), nil
}

// EffectiveThroughput returns the steady-state throughput when each
// period is stretched by its start-up extension: TasksPerPeriod / (T +
// ext). Grouping first (see Grouped) amortizes the extension, which is
// the §5.2 story: effective throughput climbs back toward the LP
// optimum as m grows.
func (s *Schedule) EffectiveThroughput(startup func(from, to string) rat.Rat) (rat.Rat, error) {
	if s.periodic == nil {
		return rat.Zero(), errNoSchedule
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
// which every period completes exactly its per-period quota.
type Simulation struct {
	// DonePerPeriod[p] is the number of operations completed in period
	// p, summed over the schedule's commodities: tasks computed,
	// messages delivered to their targets, or multicast instances that
	// reached every target. A steady entry is TasksPerPeriod() for
	// masterslave and a tree packing, and K * TasksPerPeriod() for
	// scatter and multicast-sum to K targets, whose every target
	// receives TasksPerPeriod() messages a period.
	DonePerPeriod []*big.Int
	// SteadyAfter is the first period of the final run in which every
	// commodity completes its per-period quota (-1 if never reached).
	SteadyAfter int64
}

// Simulate executes the schedule for the given number of periods,
// starting from cold buffers, and reports per-period completions. It
// runs the same replay input as Result.Replay feeds pkg/steady/sim, so
// both agree on every schedule; pkg/steady/sim adds scenarios
// (arrivals, failures, dynamic load) on top.
func (s *Schedule) Simulate(periods int64) (*Simulation, error) {
	if s.periodic == nil {
		return nil, errNoSchedule
	}
	spec := &sim.PeriodicSpec{Platform: s.periodic.P, Commodities: replayCommodities(s.periodic)}
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
	per, err := r.periodic()
	if err != nil {
		return nil, err
	}
	return newSchedule(per), nil
}

// periodic is the one switch from the raw solution to its own §4.1
// schedule, shared by Reconstruct and Replay.
func (r *Result) periodic() (*schedule.Periodic, error) {
	switch sol := r.raw.(type) {
	case *core.MasterSlave:
		return schedule.Reconstruct(sol)
	case *core.Scatter:
		if r.row.companion != nil {
			return nil, fmt.Errorf("steady: %s results have bound semantics and no schedule", r.Problem)
		}
		return schedule.ReconstructScatter(sol)
	case *core.TreePacking:
		return schedule.ReconstructTreePacking(sol)
	default:
		return nil, fmt.Errorf("steady: %s results have no schedule", r.Problem)
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
