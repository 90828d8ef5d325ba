package event

import (
	"fmt"

	"repro/pkg/steady/platform"
)

// Policy decides, each time a node's send port becomes free, which
// pending child request to serve next. Implementations live in
// internal/baseline (the makespan-oriented heuristics the paper
// motivates against) and pkg/steady/sim (LP-guided quotas).
type Policy interface {
	// Pick returns the index into pending (a slice of child node ids
	// with outstanding requests at node `from`) to serve, or -1 to
	// keep the port idle.
	Pick(from int, pending []int, st *OnlineState) int
	// Name labels the policy in experiment output.
	Name() string
}

// OnlineState exposes read-only simulation state to policies.
type OnlineState struct {
	P *platform.Platform
	// Now is the current simulated time.
	Now float64
	// Buffer[i] is the number of task files buffered at node i.
	Buffer []int
	// Done[i] is the number of tasks node i has completed.
	Done []int
	// SentTo[e] counts task files sent over edge e so far.
	SentTo []int
}

// Window is one outage window: the resource is fully offline during
// [From, Until) — no compute or transfer may start on it, though
// operations already in flight complete (the failure takes effect at
// the next scheduling decision, like a drained host).
type Window struct {
	From  float64 `json:"from"`
	Until float64 `json:"until"`
}

// downUntil reports whether t falls inside one of the windows, and
// until when.
func downUntil(ws []Window, t float64) (float64, bool) {
	for _, w := range ws {
		if t >= w.From && t < w.Until {
			return w.Until, true
		}
	}
	return 0, false
}

// OnlineConfig configures an online master-slave run.
type OnlineConfig struct {
	Platform *platform.Platform
	// Tree maps each non-master node to the platform edge from its
	// parent (a spanning in-tree rooted at the master). Baselines run
	// on tree overlays, matching the ENV view of §5.3.
	Tree []int
	// Master is the root holding all tasks.
	Master int
	// Tasks is the number of tasks to process (0 = run to Horizon).
	Tasks int
	// Horizon stops the simulation at this time (0 = until Tasks done).
	Horizon float64
	// Policy picks the next request to serve.
	Policy Policy
	// NodeLoad and EdgeLoad optionally slow resources over time
	// (nil entries = constant 1).
	NodeLoad []*LoadTrace
	EdgeLoad []*LoadTrace
	// Arrivals, when non-nil, replaces the master's unbounded initial
	// supply with a workload arrival process: one task becomes
	// available at each listed time (ascending). With Arrivals set and
	// neither Tasks nor Horizon, the run processes exactly the arrived
	// tasks.
	Arrivals []float64
	// NodeDown[i] / EdgeDown[e] are per-resource outage windows
	// (link failures, node churn). Nil slices mean always up.
	NodeDown [][]Window
	EdgeDown [][]Window
	// RequestThreshold: a child re-requests work whenever its buffer
	// falls below this many tasks (default 2, the classic
	// double-buffering of demand-driven master-slave).
	RequestThreshold int
	// Interrupt, when non-nil, aborts the simulation with
	// ErrInterrupted once it becomes receivable (typically a
	// context's Done channel). Checked every few hundred events, so
	// a long run stops promptly without per-event overhead.
	Interrupt <-chan struct{}
	// EpochLength, if > 0, invokes OnEpoch every EpochLength time
	// units with per-resource observed performance (for §5.5
	// adaptive re-planning).
	EpochLength float64
	OnEpoch     func(now float64, obs *EpochObservation)
	// Loop, when non-nil, is the event loop to run on — callers
	// attach a trace Recorder to it, and callbacks (OnEpoch, Policy)
	// may Emit supplementary records through it. A fresh loop is
	// created when nil. Each run needs its own loop.
	Loop *Loop
}

// EpochObservation reports measured resource performance during the
// last epoch: the adaptive scheduler's NWS-like sensor input.
type EpochObservation struct {
	// NodeBusy[i] is the fraction of the epoch node i spent computing.
	NodeBusy []float64
	// NodeRate[i] is tasks completed per time unit at node i.
	NodeRate []float64
	// EdgeRate[e] is task files per time unit carried by edge e.
	EdgeRate []float64
	// EffectiveW[i] is the observed seconds per task while busy
	// (w_i * average multiplier); 0 when no task completed.
	EffectiveW []float64
	// EffectiveC[e] is the observed seconds per file while busy.
	EffectiveC []float64
}

// OnlineResult reports an online run.
type OnlineResult struct {
	Makespan float64
	Done     int
	PerNode  []int
	PerEdge  []int
	// Arrived is the number of tasks released by the arrival process
	// (0 when the master's supply is unbounded).
	Arrived int
}

// RunOnlineMasterSlave simulates demand-driven master-slave tasking
// on a tree overlay under the one-port model: every node computes
// continuously from its buffer, children request work when low, and
// each node's send port serves one request at a time in policy order.
// All events run on a single deterministic Loop; attach a Recorder to
// cfg.Loop for a structured trace of the run.
func RunOnlineMasterSlave(cfg OnlineConfig) (*OnlineResult, error) {
	p := cfg.Platform
	n := p.NumNodes()
	if cfg.Master < 0 || cfg.Master >= n {
		return nil, fmt.Errorf("event: bad master")
	}
	if len(cfg.Tree) != n {
		return nil, fmt.Errorf("event: tree must have one entry per node")
	}
	if cfg.Arrivals != nil && cfg.Tasks <= 0 && cfg.Horizon <= 0 {
		cfg.Tasks = len(cfg.Arrivals)
	}
	if cfg.Tasks <= 0 && cfg.Horizon <= 0 {
		return nil, fmt.Errorf("event: need Tasks or Horizon")
	}
	if cfg.NodeDown != nil && len(cfg.NodeDown) != n {
		return nil, fmt.Errorf("event: NodeDown must have one entry per node")
	}
	if cfg.EdgeDown != nil && len(cfg.EdgeDown) != p.NumEdges() {
		return nil, fmt.Errorf("event: EdgeDown must have one entry per edge")
	}
	threshold := cfg.RequestThreshold
	if threshold <= 0 {
		threshold = 2
	}
	l := cfg.Loop
	if l == nil {
		l = NewLoop()
	}

	children := make([][]int, n) // node -> child node ids
	parentEdge := cfg.Tree
	for v := 0; v < n; v++ {
		if v == cfg.Master {
			continue
		}
		e := parentEdge[v]
		if e < 0 || e >= p.NumEdges() || p.Edge(e).To != v {
			return nil, fmt.Errorf("event: tree edge %d does not enter node %d", e, v)
		}
		children[p.Edge(e).From] = append(children[p.Edge(e).From], v)
	}

	edgeName := func(e int) string {
		ed := p.Edge(e)
		return p.Name(ed.From) + "->" + p.Name(ed.To)
	}

	st := &OnlineState{
		P:      p,
		Buffer: make([]int, n),
		Done:   make([]int, n),
		SentTo: make([]int, p.NumEdges()),
	}
	var (
		remaining  = cfg.Tasks // tasks left to hand out at the master
		masterPool int         // arrived-but-unclaimed tasks (Arrivals mode)
		arrived    int
		doneTotal  int
		computing  = make([]bool, n)
		sending    = make([]bool, n)
		pending    = make([][]int, n) // node -> child ids waiting
		requested  = make([]bool, n)  // child has an outstanding request
		busyCpu    = make([]float64, n)
		busyEdge   = make([]float64, p.NumEdges())
		epochDone  = make([]int, n)
		epochSent  = make([]int, p.NumEdges())
	)

	nodeLoad := func(i int) *LoadTrace {
		if cfg.NodeLoad == nil {
			return nil
		}
		return cfg.NodeLoad[i]
	}
	edgeLoad := func(e int) *LoadTrace {
		if cfg.EdgeLoad == nil {
			return nil
		}
		return cfg.EdgeLoad[e]
	}
	nodeUp := func(i int) bool {
		if cfg.NodeDown == nil {
			return true
		}
		_, down := downUntil(cfg.NodeDown[i], l.Now())
		return !down
	}
	edgeUp := func(e int) bool {
		if cfg.EdgeDown == nil {
			return true
		}
		_, down := downUntil(cfg.EdgeDown[e], l.Now())
		return !down
	}

	var tryCompute func(i int)
	var trySend func(i int)
	var request func(child int)

	// takeTask withdraws one task at node i (master draws from the
	// arrival pool, the bounded initial collection, or an unbounded
	// supply, in that order of configuration).
	takeTask := func(i int) bool {
		if i == cfg.Master {
			if cfg.Arrivals != nil {
				if masterPool == 0 {
					return false
				}
				masterPool--
				return true
			}
			if cfg.Tasks > 0 {
				if remaining == 0 {
					return false
				}
				remaining--
				return true
			}
			return true
		}
		if st.Buffer[i] == 0 {
			return false
		}
		st.Buffer[i]--
		return true
	}

	tryCompute = func(i int) {
		if computing[i] || !p.CanCompute(i) || !nodeUp(i) {
			return
		}
		if !takeTask(i) {
			return
		}
		computing[i] = true
		now := l.Now()
		dur := float64(p.Weight(i).Val.Float64() * nodeLoad(i).At(now))
		if l.Recording() {
			l.Emit(Record{Kind: "compute-start", Node: p.Name(i), Value: dur})
		}
		l.At(now+dur, func() {
			st.Now = l.Now()
			computing[i] = false
			st.Done[i]++
			epochDone[i]++
			doneTotal++
			busyCpu[i] += l.Now() - now
			if l.Recording() {
				l.Emit(Record{Kind: "compute-end", Node: p.Name(i), Task: int64(st.Done[i])})
			}
			tryCompute(i)
			request(i)
		})
	}

	request = func(child int) {
		if child == cfg.Master || requested[child] {
			return
		}
		if st.Buffer[child] >= threshold {
			return
		}
		parent := p.Edge(parentEdge[child]).From
		requested[child] = true
		pending[parent] = append(pending[parent], child)
		if l.Recording() {
			l.Emit(Record{Kind: "request", Node: p.Name(child)})
		}
		trySend(parent)
	}

	trySend = func(i int) {
		if sending[i] || len(pending[i]) == 0 || !nodeUp(i) {
			return
		}
		st.Now = l.Now()
		// Failed links are invisible to the policy: it only chooses
		// among children whose parent edge is currently up.
		cands := pending[i]
		var pos []int // cands index -> pending[i] index
		if cfg.EdgeDown != nil {
			cands = nil
			for j, child := range pending[i] {
				if edgeUp(parentEdge[child]) {
					cands = append(cands, child)
					pos = append(pos, j)
				}
			}
			if len(cands) == 0 {
				return
			}
		}
		pick := cfg.Policy.Pick(i, cands, st)
		if pick < 0 || pick >= len(cands) {
			return
		}
		if pos != nil {
			pick = pos[pick]
		}
		child := pending[i][pick]
		if !takeTask(i) {
			// No task to forward right now: keep the request pending;
			// trySend fires again when a task arrives at this node.
			return
		}
		pending[i] = append(pending[i][:pick:pick], pending[i][pick+1:]...)
		e := parentEdge[child]
		sending[i] = true
		now := l.Now()
		dur := float64(p.Edge(e).C.Float64() * edgeLoad(e).At(now))
		if l.Recording() {
			l.Emit(Record{Kind: "send-start", Edge: edgeName(e), Value: dur})
		}
		l.At(now+dur, func() {
			st.Now = l.Now()
			sending[i] = false
			busyEdge[e] += l.Now() - now
			st.SentTo[e]++
			epochSent[e]++
			st.Buffer[child]++
			requested[child] = false
			if l.Recording() {
				l.Emit(Record{Kind: "send-end", Edge: edgeName(e), Task: int64(st.SentTo[e])})
			}
			tryCompute(child)
			trySend(child)
			request(child) // re-request if still below threshold
			trySend(i)
		})
	}

	// Epoch ticks.
	if cfg.EpochLength > 0 && cfg.OnEpoch != nil {
		var tick func()
		tick = func() {
			st.Now = l.Now()
			obs := &EpochObservation{
				NodeBusy:   make([]float64, n),
				NodeRate:   make([]float64, n),
				EdgeRate:   make([]float64, p.NumEdges()),
				EffectiveW: make([]float64, n),
				EffectiveC: make([]float64, p.NumEdges()),
			}
			for i := 0; i < n; i++ {
				obs.NodeBusy[i] = busyCpu[i] / cfg.EpochLength
				obs.NodeRate[i] = float64(epochDone[i]) / cfg.EpochLength
				if epochDone[i] > 0 {
					obs.EffectiveW[i] = busyCpu[i] / float64(epochDone[i])
				}
				busyCpu[i] = 0
				epochDone[i] = 0
			}
			for e := 0; e < p.NumEdges(); e++ {
				obs.EdgeRate[e] = float64(epochSent[e]) / cfg.EpochLength
				if epochSent[e] > 0 {
					obs.EffectiveC[e] = busyEdge[e] / float64(epochSent[e])
				}
				busyEdge[e] = 0
				epochSent[e] = 0
			}
			if l.Recording() {
				l.Emit(Record{Kind: "epoch", Value: cfg.EpochLength})
			}
			cfg.OnEpoch(l.Now(), obs)
			l.After(cfg.EpochLength, tick)
		}
		l.At(cfg.EpochLength, tick)
	}

	// Arrival process: one event per task release.
	for _, t := range cfg.Arrivals {
		l.At(t, func() {
			st.Now = l.Now()
			masterPool++
			arrived++
			if l.Recording() {
				l.Emit(Record{Kind: "arrival", Node: p.Name(cfg.Master), Task: int64(arrived)})
			}
			tryCompute(cfg.Master)
			trySend(cfg.Master)
		})
	}

	// Failure windows: trace their boundaries and retry stalled work
	// the instant a window closes.
	if cfg.NodeDown != nil {
		for i := range cfg.NodeDown {
			i := i
			for _, w := range cfg.NodeDown[i] {
				l.At(w.From, func() { l.Emit(Record{Kind: "down", Node: p.Name(i)}) })
				l.At(w.Until, func() {
					st.Now = l.Now()
					l.Emit(Record{Kind: "up", Node: p.Name(i)})
					tryCompute(i)
					trySend(i)
				})
			}
		}
	}
	if cfg.EdgeDown != nil {
		for e := range cfg.EdgeDown {
			e := e
			from := p.Edge(e).From
			for _, w := range cfg.EdgeDown[e] {
				l.At(w.From, func() { l.Emit(Record{Kind: "down", Edge: edgeName(e)}) })
				l.At(w.Until, func() {
					st.Now = l.Now()
					l.Emit(Record{Kind: "up", Edge: edgeName(e)})
					trySend(from)
				})
			}
		}
	}

	// Boot: master computes; every leaf-to-root chain starts
	// requesting.
	tryCompute(cfg.Master)
	for v := 0; v < n; v++ {
		if v != cfg.Master {
			request(v)
		}
	}

	err := l.Run(RunConfig{
		Horizon:   cfg.Horizon,
		Interrupt: cfg.Interrupt,
		Stop: func() bool {
			return cfg.Tasks > 0 && doneTotal >= cfg.Tasks
		},
	})
	if err != nil {
		return nil, err
	}

	return &OnlineResult{
		Makespan: l.Now(),
		Done:     doneTotal,
		PerNode:  append([]int(nil), st.Done...),
		PerEdge:  append([]int(nil), st.SentTo...),
		Arrived:  arrived,
	}, nil
}

// ShortestPathTree returns, for each node, the entering edge of a
// shortest-path spanning tree rooted at master (-1 for the master
// itself), the overlay on which online policies run.
func ShortestPathTree(p *platform.Platform, master int) ([]int, error) {
	tree := make([]int, p.NumNodes())
	for v := range tree {
		tree[v] = -1
	}
	for v := 0; v < p.NumNodes(); v++ {
		if v == master {
			continue
		}
		path := p.ShortestPath(master, v)
		if path == nil {
			return nil, fmt.Errorf("event: node %d unreachable from master", v)
		}
		tree[v] = path[len(path)-1]
	}
	return tree, nil
}
