package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/adaptive"
	"repro/pkg/steady"
	"repro/pkg/steady/control"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/sim/event"
)

// controlLoopScenarios are the simulator-in-the-loop cells, all on the
// paper's Figure 1 platform with master P1: the three dynamic families
// of the event core, each strong enough to move forecasts past the
// control plane's default 10 % drift threshold.
func controlLoopScenarios() []Scenario {
	return []Scenario{
		{Name: "diurnal-walk", Horizon: 600, EpochLength: 25, Seed: 7,
			Arrivals: &ArrivalSpec{Kind: "diurnal", Rate: 1.5, Period: 200, Peak: 0.8, Count: 1200},
			NodeLoad: map[string]TraceSpec{"P2": {Kind: "random-walk", Horizon: 600, Step: 20, Lo: 1, Hi: 3}},
			EdgeLoad: map[string]TraceSpec{EdgeKey("P1", "P3"): {Kind: "random-walk", Horizon: 600, Step: 30, Lo: 1, Hi: 2.5}}},
		{Name: "bursty-steps", Horizon: 500, EpochLength: 20,
			Arrivals: &ArrivalSpec{Kind: "bursty", Burst: 40, Every: 30, Count: 800},
			NodeLoad: map[string]TraceSpec{"P4": {Kind: "steps", Times: []float64{0, 150, 320}, Mult: []float64{1, 3, 1.5}}},
			EdgeLoad: map[string]TraceSpec{EdgeKey("P1", "P2"): {Kind: "steps", Times: []float64{0, 100, 260}, Mult: []float64{1, 2, 1}}}},
		{Name: "node-failure", Horizon: 700, EpochLength: 25,
			Failures: []Failure{{Node: "P3", From: 120, Until: 260}},
			Slowdowns: []Slowdown{
				{Node: "P4", Factor: 3, From: 200, Until: 450},
				{Edge: EdgeKey("P1", "P2"), Factor: 2, From: 300, Until: 550}}},
	}
}

// loopEpoch is one line of a golden epoch log: a Manager epoch, stamped
// with the simulated time of the tick that published it.
type loopEpoch struct {
	T           float64 `json:"t"`
	Version     uint64  `json:"version"`
	Reason      string  `json:"reason"`
	MaxDrift    float64 `json:"max_drift,omitempty"`
	Fingerprint string  `json:"fingerprint"`
	Throughput  string  `json:"throughput"`
	Warm        bool    `json:"warm"`
	Pivots      int     `json:"pivots"`
}

// loopTick is what one simulator epoch did to the two §5.5 loops.
type loopTick struct {
	ctl       *adaptive.Controller
	simSolved bool              // the in-sim controller re-solved
	published int               // epochs the Manager's Tick published (0 or 1)
	snap      *control.Snapshot // the deployment after that Tick
}

// runControlLoop drives event.RunOnlineMasterSlave on sc and, from the
// one OnEpoch hook, feeds the same EpochObservation to the in-sim
// controller and — as a telemetry batch followed by a Tick on a
// synthetic clock — to a control.Manager tracking the same platform.
// It returns the Manager's epoch log and the in-sim re-solve count.
func runControlLoop(t *testing.T, sc Scenario, cfg control.Config, check func(loopTick)) ([]loopEpoch, int) {
	t.Helper()
	const id = "loop"
	ctx := context.Background()
	p := platform.Figure1()
	master := p.NodeByName("P1")
	tree, err := event.ShortestPathTree(p, master)
	if err != nil {
		t.Fatal(err)
	}
	ctl, pol, err := adaptive.NewController(p, master, tree)
	if err != nil {
		t.Fatal(err)
	}

	// An hour-long epoch keeps the Manager's background loop out of the
	// run: every tick below comes from the simulator. The clock starts
	// beyond any wall time Create can have stamped the first epoch with.
	cfg.Epoch = time.Hour
	cfg.MinResolveInterval = time.Nanosecond
	t0 := time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC)
	m := control.NewManager(cfg)
	defer m.Close()
	snap, err := m.Create(ctx, id, steady.Spec{Problem: "masterslave", Root: "P1"}, p)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := snap.Epoch.Throughput, ctl.LastThroughput.String(); got != want {
		t.Fatalf("nominal throughput: manager %s, in-sim %s", got, want)
	}
	record := func(now float64, ep *control.Epoch) loopEpoch {
		return loopEpoch{T: now, Version: ep.Version, Reason: ep.Reason, MaxDrift: ep.MaxDrift,
			Fingerprint: ep.Fingerprint, Throughput: ep.Throughput, Warm: ep.WarmStarted, Pivots: ep.Pivots}
	}
	log := []loopEpoch{record(0, snap.Epoch)}

	nodeLoad, edgeLoad, err := sc.loads(p)
	if err != nil {
		t.Fatal(err)
	}
	nodeDown, edgeDown, err := sc.outages(p)
	if err != nil {
		t.Fatal(err)
	}
	oc := event.OnlineConfig{
		Platform: p, Tree: tree, Master: master, Policy: pol,
		Horizon: sc.Horizon, EpochLength: sc.EpochLength,
		NodeLoad: nodeLoad, EdgeLoad: edgeLoad, NodeDown: nodeDown, EdgeDown: edgeDown,
	}
	if sc.Arrivals != nil {
		if oc.Arrivals, err = sc.Arrivals.times(rand.New(rand.NewSource(sc.Seed + 2))); err != nil {
			t.Fatal(err)
		}
	}
	oc.OnEpoch = func(now float64, obs *event.EpochObservation) {
		before := ctl.Resolves
		ctl.OnEpoch(now, obs)

		var batch []control.Observation
		for i, v := range obs.EffectiveW {
			if v != 0 {
				batch = append(batch, control.Observation{Node: p.Name(i), Value: v})
			}
		}
		for e, v := range obs.EffectiveC {
			if v != 0 {
				ed := p.Edge(e)
				batch = append(batch, control.Observation{From: p.Name(ed.From), To: p.Name(ed.To), Value: v})
			}
		}
		if len(batch) > 0 {
			if n, err := m.Observe(id, batch); err != nil || n != len(batch) {
				t.Fatalf("t=%v: Observe accepted %d of %d: %v", now, n, len(batch), err)
			}
		}
		published := m.Tick(ctx, t0.Add(time.Duration(now*float64(time.Second))))
		snap, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if published > 0 {
			log = append(log, record(now, snap.Epoch))
		}
		if check != nil {
			check(loopTick{ctl: ctl, simSolved: ctl.Resolves > before, published: published, snap: snap})
		}
	}
	if _, err := event.RunOnlineMasterSlave(oc); err != nil {
		t.Fatal(err)
	}
	return log, ctl.Resolves
}

// TestControlLoopMatchesInSimController is the simulator-in-the-loop
// test of the control plane: the deterministic event core, under
// seeded dynamic scenarios, is the telemetry source of a live Manager,
// next to the in-simulation controller that shares its
// adaptive.Estimator.
//
//   - exact: with the smallest drift threshold there is, the Manager
//     re-solves whenever a forecast moved at all, so after every epoch
//     the in-sim controller re-solved on, the Manager's certified
//     throughput and current model equal the controller's, exactly —
//     whether it took a new epoch to get there or the model in force
//     already was the estimate.
//   - default: at the default 10 % threshold the Manager publishes
//     fewer epochs, never more than the in-sim controller re-solves,
//     each past the threshold. Its epoch log is a committed golden.
//
// Regenerate the goldens after an intentional change to forecasting,
// rationalisation or the drift rule with:
//
//	go test ./pkg/steady/sim -run TestControlLoopMatchesInSimController -update
func TestControlLoopMatchesInSimController(t *testing.T) {
	for _, sc := range controlLoopScenarios() {
		t.Run(sc.Name+"/exact", func(t *testing.T) {
			compared, published := 0, 0
			runControlLoop(t, sc, control.Config{DriftThreshold: math.SmallestNonzeroFloat64}, func(k loopTick) {
				published += k.published
				if !k.simSolved {
					return
				}
				compared++
				ep := k.snap.Epoch
				if got, want := ep.Throughput, k.ctl.LastThroughput.String(); got != want {
					t.Fatalf("epoch v%d throughput %s, in-sim controller %s", ep.Version, got, want)
				}
				est := k.ctl.EstimatedPlatform()
				for i, n := range k.snap.Nodes {
					if want := est.Weight(i).String(); n.Current != want {
						t.Fatalf("epoch v%d w(%s) = %s, in-sim controller %s", ep.Version, n.Name, n.Current, want)
					}
				}
				for e, l := range k.snap.Links {
					if want := est.Edge(e).C.String(); l.Current != want {
						t.Fatalf("epoch v%d c(%s>%s) = %s, in-sim controller %s", ep.Version, l.From, l.To, l.Current, want)
					}
				}
			})
			if compared < 15 || published < 2 {
				t.Fatalf("compared %d epochs, %d of them published by the manager; the scenario no longer exercises the loop", compared, published)
			}
		})
		t.Run(sc.Name+"/default", func(t *testing.T) {
			log, simResolves := runControlLoop(t, sc, control.Config{}, nil)
			drifts := log[1:]
			if len(drifts) == 0 || len(drifts) > simResolves {
				t.Fatalf("manager published %d drift epochs against %d in-sim re-solves", len(drifts), simResolves)
			}
			for _, ep := range drifts {
				if ep.Reason != "drift" || ep.MaxDrift <= 0.1 {
					t.Fatalf("epoch v%d: reason %q, max drift %v; want drift beyond the 10%% threshold", ep.Version, ep.Reason, ep.MaxDrift)
				}
			}

			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			for _, ep := range log {
				if err := enc.Encode(ep); err != nil {
					t.Fatal(err)
				}
			}
			path := filepath.Join("testdata", "epochs", sc.Name+".jsonl")
			if *updateTraces {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("epoch log differs from %s; regenerate with -update if intentional\ngot:\n%s", path, buf.Bytes())
			}
		})
	}
}
