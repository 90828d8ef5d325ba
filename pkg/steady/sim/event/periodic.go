package event

import (
	"fmt"
	"math/big"

	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

// Commodity is one independently-conserved flow (master-slave tasks,
// one scatter target type) or one replicated dissemination (one
// multicast tree) of a periodic replay (steady.ReplayCommodity is this
// type; it is declared here so this package stays a leaf).
type Commodity struct {
	// Name labels the commodity in reports and traces.
	Name string
	// Source is the node index holding an unbounded supply.
	Source int
	// Replicated marks dissemination semantics: sending does not
	// debit the sender (data is copied), and availability is bounded
	// by cumulative receptions. Flow commodities debit a buffer.
	Replicated bool
	// EdgeCount[e] is the integral number of units crossing platform
	// edge e each period (nil entries are treated as zero).
	EdgeCount []*big.Int
	// Consume[i] is the integral number of units node i consumes each
	// period; nil for delivery semantics.
	Consume []*big.Int
	// Sinks are the delivery targets; the commodity's completed count
	// is the minimum over sinks of cumulative arrivals. Empty for
	// consumption semantics.
	Sinks []int
	// Quota is the certified per-period completion count of this
	// commodity in steady state.
	Quota *big.Int
}

// PeriodicSpec is the input of the exact periodic replay: a platform
// and the commodities of one reconstructed steady-state period.
type PeriodicSpec struct {
	Platform    *platform.Platform
	Commodities []Commodity
}

// PeriodicOptions tunes one periodic replay run.
type PeriodicOptions struct {
	// PerPeriod materializes Stats.DonePerPeriod over the whole
	// horizon (extrapolated periods complete exactly the quota).
	PerPeriod bool
	// Loop, when non-nil, is the event loop to run on — attach a
	// Recorder to it for a structured trace. A fresh loop is created
	// when nil.
	Loop *Loop
	// Interrupt aborts the run with ErrInterrupted (polled every 64
	// periods).
	Interrupt <-chan struct{}
}

// PeriodicStats is the outcome of an exact periodic replay.
type PeriodicStats struct {
	// Periods is the reported horizon (includes extrapolation).
	Periods int64
	// SteadyAfter is the first period index of the final run
	// sustaining every quota (-1 if not reached within the horizon).
	SteadyAfter int64
	// Simulated is the number of periods executed event by event;
	// Periods - Simulated were extrapolated arithmetically after
	// steady state was confirmed (0 extrapolated when equal).
	Simulated int64
	// Ops is the total number of completed operations over the
	// horizon, summed across commodities.
	Ops *big.Int
	// Ratio is min over commodities of done / (periods * quota): the
	// fraction of the schedule's own steady-state rate achieved.
	Ratio rat.Rat
	// DonePerPeriod[p] is the total completion count of period p
	// (only with PeriodicOptions.PerPeriod).
	DonePerPeriod []*big.Int
}

// comState is the store-and-forward state of one commodity.
//
// Flow commodities track a per-node buffer: forwarding and consuming
// debit it, receptions credit it at the end of the period (so a unit
// received in period p is usable from period p+1 — the §4.2
// store-and-forward discipline). Replicated commodities track
// cumulative receptions per node and cumulative sends per edge:
// copies are free, so sending does not debit, but an edge can only
// have carried as many instances as its tail had received by the end
// of the previous period.
type comState struct {
	c *Commodity

	buffer  []*big.Int // flow: per-node buffered units
	arrived []*big.Int // replicated: cumulative receptions
	sent    []*big.Int // replicated: cumulative sends per edge

	done     *big.Int // cumulative completions
	lastDone *big.Int // completions in the most recent period
}

func newComState(p *platform.Platform, c *Commodity) *comState {
	st := &comState{c: c, done: new(big.Int), lastDone: new(big.Int)}
	if c.Replicated {
		st.arrived = zeros(p.NumNodes())
		st.sent = zeros(p.NumEdges())
	} else {
		st.buffer = zeros(p.NumNodes())
	}
	return st
}

func zeros(n int) []*big.Int {
	out := make([]*big.Int, n)
	for i := range out {
		out[i] = new(big.Int)
	}
	return out
}

func edgeLabel(p *platform.Platform, e int) string {
	ed := p.Edge(e)
	return p.Name(ed.From) + "->" + p.Name(ed.To)
}

// step advances the commodity by one period, records the period's
// completions in lastDone, and emits transfer/compute/deliver trace
// records on l when recording.
func (st *comState) step(p *platform.Platform, l *Loop) {
	c := st.c
	n := p.NumNodes()
	recv := zeros(n)
	doneThis := new(big.Int)
	rec := l.Recording()

	if c.Replicated {
		for e := 0; e < p.NumEdges(); e++ {
			want := c.EdgeCount[e]
			if want == nil || want.Sign() == 0 {
				continue
			}
			from := p.Edge(e).From
			x := new(big.Int).Set(want)
			if from != c.Source {
				// Cumulative sends may not exceed cumulative
				// receptions as of the end of the previous period.
				headroom := new(big.Int).Sub(st.arrived[from], st.sent[e])
				if headroom.Sign() < 0 {
					headroom.SetInt64(0)
				}
				if x.Cmp(headroom) > 0 {
					x.Set(headroom)
				}
			}
			st.sent[e].Add(st.sent[e], x)
			recv[p.Edge(e).To].Add(recv[p.Edge(e).To], x)
			if rec && x.Sign() > 0 {
				l.Emit(Record{Kind: "transfer", Edge: edgeLabel(p, e), Commodity: c.Name, Count: x.String()})
			}
		}
		for i := 0; i < n; i++ {
			st.arrived[i].Add(st.arrived[i], recv[i])
		}
		if rec {
			for _, s := range c.Sinks {
				if recv[s].Sign() > 0 {
					l.Emit(Record{Kind: "deliver", Node: p.Name(s), Commodity: c.Name, Count: recv[s].String()})
				}
			}
		}
		// Completed instances: delivered to every sink.
		min := minOver(st.arrived, c.Sinks)
		doneThis.Sub(min, st.done)
		st.done.Set(min)
		st.lastDone.Set(doneThis)
		return
	}

	// Flow semantics: forward first (fixed edge order), then consume;
	// any fixed priority reaches steady state within the platform
	// depth once upstream buffers fill.
	for i := 0; i < n; i++ {
		source := i == c.Source
		avail := new(big.Int).Set(st.buffer[i])
		for _, e := range p.OutEdges(i) {
			want := c.EdgeCount[e]
			if want == nil || want.Sign() == 0 {
				continue
			}
			x := new(big.Int).Set(want)
			if !source {
				if x.Cmp(avail) > 0 {
					x.Set(avail)
				}
				avail.Sub(avail, x)
			}
			recv[p.Edge(e).To].Add(recv[p.Edge(e).To], x)
			if rec && x.Sign() > 0 {
				l.Emit(Record{Kind: "transfer", Edge: edgeLabel(p, e), Commodity: c.Name, Count: x.String()})
			}
		}
		if c.Consume != nil {
			take := new(big.Int).Set(c.Consume[i])
			if !source {
				if take.Cmp(avail) > 0 {
					take.Set(avail)
				}
				avail.Sub(avail, take)
			}
			doneThis.Add(doneThis, take)
			if rec && take.Sign() > 0 {
				l.Emit(Record{Kind: "compute", Node: p.Name(i), Commodity: c.Name, Count: take.String()})
			}
		}
		if !source {
			st.buffer[i].Set(avail)
		}
	}
	for _, s := range c.Sinks {
		// Deliveries complete on arrival; the copy also lands in the
		// buffer below, in case the schedule routes through a sink.
		doneThis.Add(doneThis, recv[s])
		if rec && recv[s].Sign() > 0 {
			l.Emit(Record{Kind: "deliver", Node: p.Name(s), Commodity: c.Name, Count: recv[s].String()})
		}
	}
	for i := 0; i < n; i++ {
		if i != c.Source {
			st.buffer[i].Add(st.buffer[i], recv[i])
		}
	}
	st.done.Add(st.done, doneThis)
	st.lastDone.Set(doneThis)
}

func minOver(vals []*big.Int, idx []int) *big.Int {
	min := new(big.Int)
	for j, i := range idx {
		if j == 0 || vals[i].Cmp(min) < 0 {
			min.Set(vals[i])
		}
	}
	return min
}

// atQuota reports whether the most recent period completed the full
// per-period quota.
func (st *comState) atQuota() bool { return st.lastDone.Cmp(st.c.Quota) == 0 }

func newComStates(spec *PeriodicSpec) ([]*comState, error) {
	if len(spec.Commodities) == 0 {
		return nil, fmt.Errorf("event: replay has no commodities")
	}
	states := make([]*comState, len(spec.Commodities))
	for i := range spec.Commodities {
		c := &spec.Commodities[i]
		if c.Quota == nil || c.Quota.Sign() <= 0 {
			return nil, fmt.Errorf("event: commodity %s does no work", c.Name)
		}
		states[i] = newComState(spec.Platform, c)
	}
	return states, nil
}

// RunPeriodic executes the replay for the given horizon as a sequence
// of period events on the loop (period p runs at time p). It simulates
// period by period until every commodity sustains its quota for two
// consecutive periods, then extrapolates the remaining horizon
// arithmetically (in steady state each period adds exactly the
// quota), so long horizons are O(transient), not O(periods).
func RunPeriodic(spec *PeriodicSpec, periods int64, opts PeriodicOptions) (*PeriodicStats, error) {
	if periods <= 0 {
		return nil, fmt.Errorf("event: non-positive horizon")
	}
	states, err := newComStates(spec)
	if err != nil {
		return nil, err
	}
	l := opts.Loop
	if l == nil {
		l = NewLoop()
	}

	stats := &PeriodicStats{Periods: periods, SteadyAfter: -1}
	steadyRun := 0
	simulated := int64(0)
	var stepFn func()
	stepFn = func() {
		allQuota := true
		doneThis := new(big.Int)
		for _, st := range states {
			st.step(spec.Platform, l)
			doneThis.Add(doneThis, st.lastDone)
			if !st.atQuota() {
				allQuota = false
			}
		}
		if opts.PerPeriod {
			stats.DonePerPeriod = append(stats.DonePerPeriod, doneThis)
		}
		if l.Recording() {
			l.Emit(Record{Kind: "period", Count: doneThis.String()})
		}
		simulated++
		if allQuota {
			if stats.SteadyAfter < 0 {
				stats.SteadyAfter = simulated - 1
			}
			steadyRun++
			if l.Recording() {
				l.Emit(Record{Kind: "steady"})
			}
			if steadyRun >= 2 {
				return // steady confirmed: extrapolate the rest
			}
		} else {
			stats.SteadyAfter = -1
			steadyRun = 0
		}
		if simulated < periods {
			l.After(1, stepFn)
		}
	}
	l.At(0, stepFn)
	if err := l.Run(RunConfig{Interrupt: opts.Interrupt, CheckEvery: 64}); err != nil {
		return nil, err
	}

	// Extrapolate the remaining horizon: every steady period adds
	// exactly the quota.
	stats.Simulated = simulated
	remaining := periods - simulated
	stats.Ops = new(big.Int)
	pb := big.NewInt(periods)
	for i, st := range states {
		total := new(big.Int).Set(st.done)
		if remaining > 0 {
			total.Add(total, new(big.Int).Mul(st.c.Quota, big.NewInt(remaining)))
		}
		stats.Ops.Add(stats.Ops, total)
		r := bigRatio(total, new(big.Int).Mul(st.c.Quota, pb))
		if i == 0 || r.Less(stats.Ratio) {
			stats.Ratio = r
		}
	}
	if remaining > 0 {
		quotaSum := new(big.Int)
		for _, st := range states {
			quotaSum.Add(quotaSum, st.c.Quota)
		}
		if l.Recording() {
			added := new(big.Int).Mul(quotaSum, big.NewInt(remaining))
			l.Emit(Record{Kind: "extrapolate", Value: float64(remaining), Count: added.String()})
		}
		if opts.PerPeriod {
			for k := int64(0); k < remaining; k++ {
				stats.DonePerPeriod = append(stats.DonePerPeriod, quotaSum)
			}
		}
	}
	return stats, nil
}

// RunUntil executes the replay from cold buffers until at least n
// operations complete and returns the number of whole periods used
// (the §4.2 makespan measure: wall-clock makespan is periods * T).
// Once steady state is confirmed the remaining periods are computed
// arithmetically, which is exact because every steady period
// completes the full quota.
func RunUntil(spec *PeriodicSpec, n *big.Int, opts PeriodicOptions) (int64, error) {
	states, err := newComStates(spec)
	if err != nil {
		return 0, err
	}
	quotaSum := new(big.Int)
	depth := 0
	for _, st := range states {
		quotaSum.Add(quotaSum, st.c.Quota)
		if d := spec.Platform.MaxDepthFrom(st.c.Source); d > depth {
			depth = d
		}
	}
	if quotaSum.Sign() <= 0 {
		return 0, fmt.Errorf("event: schedule does no work")
	}
	l := opts.Loop
	if l == nil {
		l = NewLoop()
	}
	// Safety cap: steady state is reached after at most depth
	// periods, so n tasks need at most n/rate + depth + 1 periods.
	capPeriods := new(big.Int).Div(n, quotaSum).Int64() + int64(depth) + 2

	var (
		done      = new(big.Int)
		period    = int64(-1)
		steadyRun = 0
		finished  = int64(-1)
		capHit    bool
	)
	var stepFn func()
	stepFn = func() {
		period++
		allQuota := true
		doneThis := new(big.Int)
		for _, st := range states {
			st.step(spec.Platform, l)
			doneThis.Add(doneThis, st.lastDone)
			if !st.atQuota() {
				allQuota = false
			}
		}
		done.Add(done, doneThis)
		if l.Recording() {
			l.Emit(Record{Kind: "period", Count: doneThis.String()})
		}
		if done.Cmp(n) >= 0 {
			finished = period + 1
			return
		}
		if allQuota {
			steadyRun++
			if steadyRun >= 2 {
				// Extrapolate: k more steady periods finish the job.
				short := new(big.Int).Sub(n, done)
				k := short.Add(short, quotaSum)
				k.Sub(k, big.NewInt(1))
				k.Div(k, quotaSum)
				finished = period + 1 + k.Int64()
				if l.Recording() {
					l.Emit(Record{Kind: "extrapolate", Value: float64(k.Int64())})
				}
				return
			}
		} else {
			steadyRun = 0
		}
		if period+1 > capPeriods {
			capHit = true
			return
		}
		l.After(1, stepFn)
	}
	l.At(0, stepFn)
	if err := l.Run(RunConfig{Interrupt: opts.Interrupt, CheckEvery: 64}); err != nil {
		return 0, err
	}
	if capHit {
		return 0, fmt.Errorf("event: exceeded expected %d periods (ramp-up never completed)", capPeriods)
	}
	if finished < 0 {
		return 0, fmt.Errorf("event: replay stalled before completing %s operations", n)
	}
	return finished, nil
}

func bigRatio(a, b *big.Int) rat.Rat {
	return rat.FromBig(new(big.Rat).SetFrac(a, b))
}
