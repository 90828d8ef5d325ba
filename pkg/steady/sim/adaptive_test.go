package sim

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/baseline"
	"repro/pkg/steady"
	"repro/pkg/steady/control"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
	"repro/pkg/steady/sim/event"
)

func TestQuotaPolicyPrefersDeficit(t *testing.T) {
	p := platform.Star(platform.WInt(10),
		[]platform.Weight{platform.WInt(1), platform.WInt(1)},
		[]rat.Rat{rat.FromInt(1), rat.FromInt(1)})
	tree, _ := event.ShortestPathTree(p, 0)
	pol := &quotaPolicy{rate: make([]float64, p.NumEdges()), tree: tree}
	pol.rate[tree[1]] = 1.0 // child 1 should get 1 task/unit
	pol.rate[tree[2]] = 0.1 // child 2 nearly nothing
	st := &event.OnlineState{
		P:      p,
		Now:    10,
		SentTo: []int{2, 0}, // child 1 already received 2, child 2 none
	}
	// Deficits: child1 = 1*10-2 = 8; child2 = 0.1*10-0 = 1.
	if pick := pol.Pick(0, []int{1, 2}, st); pick != 0 {
		t.Fatalf("picked %d, want child 1 (max deficit)", pick)
	}
	if pol.Name() == "" {
		t.Fatal("empty name")
	}
}

// TestQuotaVsDemandDrivenOnStablePlatform: on a stable platform the
// LP quotas keep up with plain demand-driven FCFS (both should
// saturate the same bound).
func TestQuotaVsDemandDrivenOnStablePlatform(t *testing.T) {
	p := platform.Star(platform.WInt(20),
		[]platform.Weight{platform.WInt(2), platform.WInt(4)},
		[]rat.Rat{rat.FromInt(1), rat.FromInt(2)})
	quota, err := New(Config{}).Run(context.Background(), solveOn(t, steady.Spec{Problem: "masterslave", Root: "P0"}, p), Scenario{Horizon: 500})
	if err != nil {
		t.Fatal(err)
	}
	tree, _ := event.ShortestPathTree(p, 0)
	fcfs, err := event.RunOnlineMasterSlave(event.OnlineConfig{
		Platform: p, Tree: tree, Master: 0, Horizon: 500, Policy: baseline.FCFS{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("stable star: lp-quota %d, fcfs %d", quota.Done, fcfs.Done)
	if quota.Done < fcfs.Done*90/100 {
		t.Fatalf("lp-quota (%d) far below fcfs (%d) on a stable platform", quota.Done, fcfs.Done)
	}
}

// driftStar is a star whose second worker's link degrades 5x at t=200
// while the first improves: the kind of change §5.5 targets.
func driftStar(t *testing.T, horizon float64) (*steady.Result, Scenario) {
	t.Helper()
	p := platform.Star(platform.WInt(20),
		[]platform.Weight{platform.WInt(2), platform.WInt(2)},
		[]rat.Rat{rat.FromInt(1), rat.FromInt(1)})
	res := solveOn(t, steady.Spec{Problem: "masterslave", Root: "P0"}, p)
	return res, Scenario{Horizon: horizon, EpochLength: 50, EdgeLoad: map[string]TraceSpec{
		EdgeKey("P0", "P1"): {Kind: "steps", Times: []float64{0, 200}, Mult: []float64{3, 1}},
		EdgeKey("P0", "P2"): {Kind: "steps", Times: []float64{0, 200}, Mult: []float64{1, 5}},
	}}
}

// TestAdaptiveRunResolvesAndAdapts: on the drifting star the adaptive
// run re-solves, and the model in force at the end is the platform
// after the change — each link cost within the 10 % drift threshold of
// its true value — with quotas that now favour the improved link.
func TestAdaptiveRunResolvesAndAdapts(t *testing.T) {
	res, sc := driftStar(t, 600)
	sc.Adaptive = true
	var last *control.Snapshot
	eng := New(Config{})
	eng.published = func(_ float64, snap *control.Snapshot) { last = snap }
	rep, err := eng.Run(context.Background(), res, sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("drifting star: %d tasks, %d re-solves, final throughput %s", rep.Done, rep.Resolves, last.Epoch.Throughput)
	if rep.Resolves == 0 {
		t.Fatal("the adaptive run never re-solved on a 5x drift")
	}
	if rep.Done == 0 {
		t.Fatal("no tasks done")
	}
	pol := &quotaPolicy{rate: make([]float64, len(last.Links))}
	if err := pol.setRates(last); err != nil {
		t.Fatal(err)
	}
	for e, want := range []float64{1, 5} {
		c, err := rat.Parse(last.Links[e].Current)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Float64(); math.Abs(got-want) > 0.1*want {
			t.Fatalf("final model c(%s>%s) = %v, true cost %v", last.Links[e].From, last.Links[e].To, got, want)
		}
	}
	if pol.rate[0] <= pol.rate[1] {
		t.Fatalf("final quota rates %v do not favour the improved link", pol.rate)
	}
}

// TestAdaptiveBeatsStaleStaticQuotas is E8 in miniature: on the
// drifting star the adaptive run re-plans, and it must not lose to
// quotas frozen at t=0 (it usually wins).
func TestAdaptiveBeatsStaleStaticQuotas(t *testing.T) {
	res, sc := driftStar(t, 800)
	eng := New(Config{})
	static, err := eng.Run(context.Background(), res, sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.Adaptive = true
	dyn, err := eng.Run(context.Background(), res, sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("drifting star: static quotas %d tasks, adaptive %d tasks, %d re-solves", static.Done, dyn.Done, dyn.Resolves)
	if dyn.Done < static.Done*95/100 {
		t.Fatalf("adaptive (%d) lost badly to static (%d)", dyn.Done, static.Done)
	}
}

// TestAdaptiveEpochBatch pins what an adaptive run hands its Manager:
// a zero is "nothing observed", a value the shared guard refuses and a
// forwarder's compute cost are left out of the batch — so one corrupted
// probe degrades one series and never fails the run — and a batch the
// Manager refuses all the same is the run's error, not a silent stall.
func TestAdaptiveEpochBatch(t *testing.T) {
	p := platform.Star(platform.WInt(4),
		[]platform.Weight{platform.WInt(2), platform.WInf()}, []rat.Rat{rat.FromInt(1), rat.FromInt(1)})
	tree, err := event.ShortestPathTree(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	loop, err := newAdaptiveLoop(context.Background(), p, 0, tree, event.NewLoop(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer loop.m.Close()
	observed := func() (nodes, links []int64) {
		snap, err := loop.m.Get(adaptiveDeployment)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range snap.Nodes {
			nodes = append(nodes, n.Observations)
		}
		for _, l := range snap.Links {
			links = append(links, l.Observations)
		}
		return nodes, links
	}
	epoch := func(now float64, w, c []float64) {
		loop.onEpoch(now, &event.EpochObservation{EffectiveW: w, EffectiveC: c})
		if loop.err != nil {
			t.Fatalf("t=%v: %v", now, loop.err)
		}
	}

	epoch(10, []float64{0, 0, 0}, []float64{0, 0})
	epoch(20, []float64{math.NaN(), 6, 1}, []float64{math.Inf(1), 2})
	nodes, links := observed()
	if want := []int64{0, 1, 0}; !slices.Equal(nodes, want) {
		t.Fatalf("node observations %v, want %v", nodes, want)
	}
	if want := []int64{0, 1}; !slices.Equal(links, want) {
		t.Fatalf("link observations %v, want %v", links, want)
	}

	if err := loop.m.Remove(adaptiveDeployment); err != nil {
		t.Fatal(err)
	}
	loop.onEpoch(30, &event.EpochObservation{EffectiveW: []float64{0, 6, 0}, EffectiveC: []float64{1, 0}})
	if !errors.Is(loop.err, control.ErrUnknownDeployment) {
		t.Fatalf("a refused batch left err = %v, want the Manager's refusal", loop.err)
	}
}
