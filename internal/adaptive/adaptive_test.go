package adaptive

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/pkg/steady/control/forecast"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
	sim "repro/pkg/steady/sim/event"
)

// driftStar builds a star whose second worker's link degrades 5x at
// t=200 while the first improves: the kind of change §5.5 targets.
func driftStar() (*platform.Platform, []*sim.LoadTrace, []*sim.LoadTrace) {
	p := platform.Star(platform.WInt(20),
		[]platform.Weight{platform.WInt(2), platform.WInt(2)},
		[]rat.Rat{rat.FromInt(1), rat.FromInt(1)})
	edgeLoad := []*sim.LoadTrace{
		sim.StepLoad([]float64{0, 200}, []float64{3, 1}),
		sim.StepLoad([]float64{0, 200}, []float64{1, 5}),
	}
	return p, nil, edgeLoad
}

func TestControllerResolvesAndAdapts(t *testing.T) {
	p, nodeLoad, edgeLoad := driftStar()
	tree, err := sim.ShortestPathTree(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctl, pol, err := NewController(p, 0, tree)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunOnlineMasterSlave(sim.OnlineConfig{
		Platform: p, Tree: tree, Master: 0, Horizon: 600,
		Policy:      pol,
		NodeLoad:    nodeLoad,
		EdgeLoad:    edgeLoad,
		EpochLength: 50,
		OnEpoch:     ctl.OnEpoch,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ctl.Resolves < 5 {
		t.Fatalf("only %d LP re-solves in 12 epochs", ctl.Resolves)
	}
	if res.Done == 0 {
		t.Fatal("no tasks done")
	}
	if ctl.LastThroughput.Sign() <= 0 {
		t.Fatal("no estimated throughput")
	}
}

func TestEstimatedPlatformTracksObservations(t *testing.T) {
	p := platform.Star(platform.WInt(4),
		[]platform.Weight{platform.WInt(2)}, []rat.Rat{rat.FromInt(1)})
	tree, _ := sim.ShortestPathTree(p, 0)
	ctl, _, err := NewController(p, 0, tree)
	if err != nil {
		t.Fatal(err)
	}
	// Feed observations: worker really takes 6 s/task, link 2 s/file.
	obs := &sim.EpochObservation{
		EffectiveW: []float64{0, 6},
		EffectiveC: []float64{2},
		NodeBusy:   make([]float64, 2),
		NodeRate:   make([]float64, 2),
		EdgeRate:   make([]float64, 1),
	}
	for i := 0; i < 5; i++ {
		ctl.OnEpoch(float64(i+1)*10, obs)
	}
	est := ctl.EstimatedPlatform()
	if got := est.Weight(1).Val.Float64(); got < 5.5 || got > 6.5 {
		t.Fatalf("estimated worker weight %v, want ~6", got)
	}
	if got := est.Edge(0).C.Float64(); got < 1.8 || got > 2.2 {
		t.Fatalf("estimated link cost %v, want ~2", got)
	}
	// Unobserved nodes keep nominal values.
	if !est.Weight(0).Val.Equal(rat.FromInt(4)) {
		t.Fatal("unobserved master weight changed")
	}
}

func TestAdaptiveBeatsStaleStaticQuotas(t *testing.T) {
	// E8 in miniature: under drift, epoch re-solving must not lose to
	// quotas frozen at t=0 (and usually wins).
	p, nodeLoad, edgeLoad := driftStar()
	tree, err := sim.ShortestPathTree(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	run := func(adaptive bool) int {
		ctl, pol, err := NewController(p, 0, tree)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.OnlineConfig{
			Platform: p, Tree: tree, Master: 0, Horizon: 800,
			Policy:   pol,
			NodeLoad: nodeLoad,
			EdgeLoad: edgeLoad,
		}
		if adaptive {
			cfg.EpochLength = 50
			cfg.OnEpoch = ctl.OnEpoch
		}
		res, err := sim.RunOnlineMasterSlave(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Done
	}
	static := run(false)
	dyn := run(true)
	t.Logf("drifting star: static quotas %d tasks, adaptive %d tasks", static, dyn)
	if dyn < static*95/100 {
		t.Fatalf("adaptive (%d) lost badly to static (%d)", dyn, static)
	}
}

func TestQuotaPolicyPrefersDeficit(t *testing.T) {
	p := platform.Star(platform.WInt(10),
		[]platform.Weight{platform.WInt(1), platform.WInt(1)},
		[]rat.Rat{rat.FromInt(1), rat.FromInt(1)})
	tree, _ := sim.ShortestPathTree(p, 0)
	pol := NewQuotaPolicy(tree, make([]float64, p.NumEdges()))
	pol.rate[tree[1]] = 1.0 // child 1 should get 1 task/unit
	pol.rate[tree[2]] = 0.1 // child 2 nearly nothing
	st := &sim.OnlineState{
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

func TestQuotaVsDemandDrivenOnStablePlatform(t *testing.T) {
	// Sanity: on a stable platform, LP quotas keep up with plain
	// demand-driven FCFS (both should saturate the same bound).
	p := platform.Star(platform.WInt(20),
		[]platform.Weight{platform.WInt(2), platform.WInt(4)},
		[]rat.Rat{rat.FromInt(1), rat.FromInt(2)})
	tree, _ := sim.ShortestPathTree(p, 0)
	ctl, pol, err := NewController(p, 0, tree)
	if err != nil {
		t.Fatal(err)
	}
	_ = ctl
	quota, err := sim.RunOnlineMasterSlave(sim.OnlineConfig{
		Platform: p, Tree: tree, Master: 0, Horizon: 500, Policy: pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	fcfs, err := sim.RunOnlineMasterSlave(sim.OnlineConfig{
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

// TestIngestIsPerMeasurement pins what Ingest adds to the Estimator's
// guard (TestEstimatorGuard covers the values themselves): a zero is
// "nothing observed", rejection is per measurement rather than per
// epoch — the simulator has no transactional caller to retry, unlike
// the HTTP telemetry endpoint — every rejected series is named, and
// OnEpoch rides out a fully hostile epoch.
func TestIngestIsPerMeasurement(t *testing.T) {
	newCtl := func() *Controller {
		p := platform.Star(platform.WInt(4),
			[]platform.Weight{platform.WInt(2)}, []rat.Rat{rat.FromInt(1)})
		tree, _ := sim.ShortestPathTree(p, 0)
		ctl, _, err := NewController(p, 0, tree)
		if err != nil {
			t.Fatal(err)
		}
		return ctl
	}
	obs := func(w1, c0 float64) *sim.EpochObservation {
		return &sim.EpochObservation{EffectiveW: []float64{0, w1}, EffectiveC: []float64{c0}}
	}

	ctl := newCtl()
	if err := ctl.Ingest(obs(0, 0)); err != nil {
		t.Fatalf("an epoch with nothing observed was rejected: %v", err)
	}
	if err := ctl.Ingest(obs(6, 2)); err != nil {
		t.Fatalf("Ingest rejected a clean observation: %v", err)
	}

	// A bad node series must not block a good edge series in the same
	// epoch.
	ctl = newCtl()
	var err error
	for i := 0; i < 5; i++ {
		err = ctl.Ingest(obs(math.NaN(), 3))
	}
	if !errors.Is(err, forecast.ErrBadMeasurement) || !strings.Contains(err.Error(), "node P1") {
		t.Fatalf("hostile node series: err = %v, want ErrBadMeasurement naming node P1", err)
	}
	est := ctl.EstimatedPlatform()
	if !est.Weight(1).Val.Equal(rat.FromInt(2)) {
		t.Fatalf("hostile node series reached the model: %v", est.Weight(1).Val)
	}
	if got := est.Edge(0).C.Float64(); got < 2.8 || got > 3.2 {
		t.Fatalf("valid edge series blocked by hostile node series: c=%v", got)
	}

	// Both series bad: both named, and the §5.5 loop must not crash on
	// a corrupted probe — it re-solves on the previous estimates.
	ctl = newCtl()
	err = ctl.Ingest(obs(math.NaN(), math.Inf(1)))
	if err == nil || !strings.Contains(err.Error(), "node P1") || !strings.Contains(err.Error(), "edge P0>P1") {
		t.Fatalf("err = %v, want both series named", err)
	}
	ctl.OnEpoch(10, obs(math.NaN(), math.Inf(1)))
	if ctl.Resolves != 1 || ctl.LastThroughput.Sign() <= 0 {
		t.Fatalf("controller lost its schedule after a hostile epoch: %d resolves, throughput %v", ctl.Resolves, ctl.LastThroughput)
	}
}
