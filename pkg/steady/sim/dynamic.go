package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/pkg/steady"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/sim/event"
)

// defaultEpoch is the re-planning epoch of adaptive scenarios that do
// not set one.
const defaultEpoch = 25.0

// runDynamic executes a dynamic scenario on the event core's online
// one-port simulator: demand-driven master-slave tasking on a
// shortest-path overlay, with per-resource load traces, arrival
// processes, failure windows, and optionally the §5.5 control loop
// (adaptive.go). Only masterslave results under the base model are
// dynamic-simulatable; the distribution problems ship data, not
// tasks, and have no demand-driven online form here.
func (e *Engine) runDynamic(ctx context.Context, res *steady.Result, sc *Scenario, l *event.Loop) (*Report, error) {
	if res.Problem != "masterslave" {
		return nil, fmt.Errorf("sim: dynamic scenarios require a masterslave result, got %s", res.Problem)
	}
	if res.Model != steady.SendAndReceive {
		return nil, fmt.Errorf("sim: dynamic scenarios require the send-and-receive model")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rp, err := res.Replay()
	if err != nil {
		return nil, err
	}
	p := rp.Platform
	master := rp.Commodities[0].Source
	tree, err := event.ShortestPathTree(p, master)
	if err != nil {
		return nil, err
	}

	nodeLoad, edgeLoad, err := sc.loads(p)
	if err != nil {
		return nil, err
	}
	nodeDown, edgeDown, err := sc.outages(p)
	if err != nil {
		return nil, err
	}

	cfg := event.OnlineConfig{
		Platform:  p,
		Tree:      tree,
		Master:    master,
		Tasks:     sc.Tasks,
		Horizon:   sc.Horizon,
		NodeLoad:  nodeLoad,
		EdgeLoad:  edgeLoad,
		NodeDown:  nodeDown,
		EdgeDown:  edgeDown,
		Interrupt: ctx.Done(),
		Loop:      l,
	}
	if sc.Arrivals != nil {
		// Arrival times draw from their own seeded stream (seed+2) so
		// adding an arrival process never perturbs the load traces.
		arng := rand.New(rand.NewSource(sc.Seed + 2))
		if cfg.Arrivals, err = sc.Arrivals.times(arng); err != nil {
			return nil, err
		}
	} else if cfg.Tasks == 0 && cfg.Horizon == 0 {
		cfg.Tasks = defaultDynamicTasks
	}

	var loop *adaptiveLoop
	if sc.Adaptive {
		if loop, err = newAdaptiveLoop(ctx, p, master, tree, l, e.published); err != nil {
			return nil, err
		}
		defer loop.m.Close()
		cfg.Policy = loop.pol
		cfg.EpochLength = sc.EpochLength
		if cfg.EpochLength <= 0 {
			cfg.EpochLength = defaultEpoch
		}
		cfg.OnEpoch = loop.onEpoch
	} else {
		// Fixed LP-quota policy: serve the child furthest behind the
		// solved steady-state edge rates.
		rate := make([]float64, p.NumEdges())
		for e := range rate {
			if n := rp.Commodities[0].EdgeCount[e]; n != nil {
				rate[e] = bigRat(n, rp.Period).Float64()
			}
		}
		cfg.Policy = &quotaPolicy{rate: rate, tree: tree}
	}

	out, err := event.RunOnlineMasterSlave(cfg)
	if err == nil && loop != nil {
		err = loop.err
	}
	if err != nil {
		// Surface a timeout/cancellation as the context's error so
		// callers (pkg/steady/server) map it to the right status.
		if errors.Is(err, event.ErrInterrupted) && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}

	rep := &Report{
		Solver:         res.Solver,
		Problem:        res.Problem,
		Model:          res.Model.String(),
		Scenario:       sc.label(),
		Kind:           "online",
		Certified:      res.Throughput.String(),
		CertifiedValue: res.ThroughputFloat(),
		SteadyAfter:    -1,
		Makespan:       out.Makespan,
		Done:           out.Done,
		Arrived:        out.Arrived,
	}
	if out.Makespan > 0 {
		rep.AchievedValue = float64(out.Done) / out.Makespan
		if rep.CertifiedValue > 0 {
			rep.RatioValue = rep.AchievedValue / rep.CertifiedValue
		}
	}
	if loop != nil {
		rep.Resolves, rep.LPPivots = loop.resolves, loop.pivots
	}
	return rep, nil
}

// loads materializes the scenario's traces against a concrete
// platform, merging Slowdowns into the per-resource trace maps.
func (sc *Scenario) loads(p *platform.Platform) (nodes, edges []*event.LoadTrace, err error) {
	rng := rand.New(rand.NewSource(sc.Seed + 1))
	var nodeSpecs = map[string]TraceSpec{}
	for name, ts := range sc.NodeLoad {
		nodeSpecs[name] = ts
	}
	edgeSpecs := map[string]TraceSpec{}
	for key, ts := range sc.EdgeLoad {
		edgeSpecs[key] = ts
	}
	for _, sl := range sc.Slowdowns {
		if sl.Node != "" {
			if _, dup := nodeSpecs[sl.Node]; dup {
				return nil, nil, fmt.Errorf("sim: node %s has both a trace and a slowdown", sl.Node)
			}
			nodeSpecs[sl.Node] = sl.spec()
		} else {
			if _, dup := edgeSpecs[sl.Edge]; dup {
				return nil, nil, fmt.Errorf("sim: edge %s has both a trace and a slowdown", sl.Edge)
			}
			edgeSpecs[sl.Edge] = sl.spec()
		}
	}
	// Materialize in sorted key order: the specs live in Go maps whose
	// iteration order is randomized, and random-walk traces draw from
	// one shared rng — unordered iteration would hand different walks
	// to different resources on every run, breaking the "same seed,
	// same scenario" contract.
	if len(nodeSpecs) > 0 {
		nodes = make([]*event.LoadTrace, p.NumNodes())
		for _, name := range sortedKeys(nodeSpecs) {
			i := p.NodeByName(name)
			if i < 0 {
				return nil, nil, fmt.Errorf("sim: node_load names unknown node %q", name)
			}
			if nodes[i], err = nodeSpecs[name].trace(rng); err != nil {
				return nil, nil, err
			}
		}
	}
	if len(edgeSpecs) > 0 {
		edges = make([]*event.LoadTrace, p.NumEdges())
		for _, key := range sortedKeys(edgeSpecs) {
			fromName, toName, err := splitEdgeKey(key)
			if err != nil {
				return nil, nil, err
			}
			from, to := p.NodeByName(fromName), p.NodeByName(toName)
			if from < 0 || to < 0 {
				return nil, nil, fmt.Errorf("sim: edge_load names unknown edge %q", key)
			}
			e := p.FindEdge(from, to)
			if e < 0 {
				return nil, nil, fmt.Errorf("sim: platform has no edge %q", key)
			}
			if edges[e], err = edgeSpecs[key].trace(rng); err != nil {
				return nil, nil, err
			}
		}
	}
	return nodes, edges, nil
}

// outages resolves the scenario's failure windows against a concrete
// platform into the event core's per-resource window lists.
func (sc *Scenario) outages(p *platform.Platform) (nodes, edges [][]event.Window, err error) {
	for _, f := range sc.Failures {
		w := event.Window{From: f.From, Until: f.Until}
		if f.Node != "" {
			i := p.NodeByName(f.Node)
			if i < 0 {
				return nil, nil, fmt.Errorf("sim: failure names unknown node %q", f.Node)
			}
			if nodes == nil {
				nodes = make([][]event.Window, p.NumNodes())
			}
			nodes[i] = append(nodes[i], w)
			continue
		}
		fromName, toName, err := splitEdgeKey(f.Edge)
		if err != nil {
			return nil, nil, err
		}
		from, to := p.NodeByName(fromName), p.NodeByName(toName)
		if from < 0 || to < 0 {
			return nil, nil, fmt.Errorf("sim: failure names unknown edge %q", f.Edge)
		}
		e := p.FindEdge(from, to)
		if e < 0 {
			return nil, nil, fmt.Errorf("sim: platform has no edge %q", f.Edge)
		}
		if edges == nil {
			edges = make([][]event.Window, p.NumEdges())
		}
		edges[e] = append(edges[e], w)
	}
	return nodes, edges, nil
}

func sortedKeys(m map[string]TraceSpec) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
