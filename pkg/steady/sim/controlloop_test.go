package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/pkg/steady"
	"repro/pkg/steady/control"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
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

// loggingEngine returns an engine whose adaptive runs append every
// epoch their Manager publishes to *log.
func loggingEngine(log *[]loopEpoch) *Engine {
	eng := New(Config{})
	eng.published = func(now float64, snap *control.Snapshot) {
		ep := snap.Epoch
		*log = append(*log, loopEpoch{T: now, Version: ep.Version, Reason: ep.Reason, MaxDrift: ep.MaxDrift,
			Fingerprint: ep.Fingerprint, Throughput: ep.Throughput, Warm: ep.WarmStarted, Pivots: ep.Pivots})
	}
	return eng
}

// modelPlatform rebuilds the platform model a deployment's current
// epoch was solved on from its snapshot's exact Current values.
func modelPlatform(snap *control.Snapshot) (*platform.Platform, error) {
	p := platform.New()
	for _, n := range snap.Nodes {
		w := platform.WInf()
		if n.Current != "inf" {
			v, err := rat.Parse(n.Current)
			if err != nil {
				return nil, err
			}
			w = platform.W(v)
		}
		p.AddNode(n.Name, w)
	}
	for _, l := range snap.Links {
		c, err := rat.Parse(l.Current)
		if err != nil {
			return nil, err
		}
		p.AddEdge(p.NodeByName(l.From), p.NodeByName(l.To), c)
	}
	return p, nil
}

// settleGoroutines waits for the goroutine count to fall back to base:
// a closed Manager's loop has signalled its exit but may not have
// returned yet.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > base {
		t.Fatalf("%d goroutines after the run, %d before: the run's Manager leaked", n, base)
	}
}

// TestAdaptiveRunFollowsItsEpochs is the simulator-in-the-loop test of
// the §5.5 controller: an adaptive run re-plans through an in-process
// control.Manager, so the deterministic event core, under seeded
// dynamic scenarios, is the telemetry source of the production loop.
//
// exact: every epoch the run's Manager published — through its cache —
// certifies exactly the throughput, and carries the fingerprint, of a
// cold, uncached solve of the model it was solved on.
//
// default, at the Manager's default 10 % drift threshold:
//
//   - the epoch log the run's own Manager published is a committed
//     golden;
//   - every drift epoch moved a forecast past the 10 % threshold, and
//     the report's re-solve counters are those epochs;
//   - re-planning costs at most a start-up transient: the adaptive run
//     completes no fewer tasks than the nominal quotas on the same
//     scenario, less §4.2's start-up bound (platform depth × tasks per
//     period of the nominal schedule). A re-plan is a new schedule
//     whose pipeline refills; at capacity the tasks that costs are
//     never recovered, so the shortfall is bounded, not zero;
//   - the Manager is gone when the run returns, on success and when
//     the run's context ends mid-run (a /v1/simulate timeout).
//
// Regenerate the goldens after an intentional change to forecasting,
// rationalisation or the drift rule with:
//
//	go test ./pkg/steady/sim -run TestAdaptiveRunFollowsItsEpochs -update
func TestAdaptiveRunFollowsItsEpochs(t *testing.T) {
	res := solveOn(t, steady.Spec{Problem: "masterslave", Root: "P1"}, platform.Figure1())
	rp, err := res.Replay()
	if err != nil {
		t.Fatal(err)
	}
	startup := int(rp.OpsPerPeriod.Int64()) * rp.Platform.MaxDepthFrom(rp.Commodities[0].Source)
	exact, err := steady.New(steady.Spec{Problem: "masterslave", Root: "P1"})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range controlLoopScenarios() {
		t.Run(sc.Name+"/exact", func(t *testing.T) {
			var compared, drifts int
			eng := New(Config{})
			eng.published = func(now float64, snap *control.Snapshot) {
				ep := snap.Epoch
				model, err := modelPlatform(snap)
				if err != nil {
					t.Fatal(err)
				}
				cold, err := exact.Solve(context.Background(), model)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := ep.Throughput, cold.Throughput.String(); got != want {
					t.Fatalf("t=%v: epoch v%d throughput %s, a cold exact solve of its model %s", now, ep.Version, got, want)
				}
				if ep.Fingerprint != cold.Fingerprint {
					t.Fatalf("t=%v: epoch v%d fingerprint %s, its model's %s", now, ep.Version, ep.Fingerprint, cold.Fingerprint)
				}
				compared++
				if ep.Reason == "drift" {
					drifts++
				}
			}
			adaptive := sc
			adaptive.Adaptive = true
			if _, err := eng.Run(context.Background(), res, adaptive); err != nil {
				t.Fatal(err)
			}
			if drifts == 0 || compared != drifts+1 {
				t.Fatalf("compared %d epochs, %d of them drift; the scenario no longer exercises the loop", compared, drifts)
			}
		})
		t.Run(sc.Name+"/default", func(t *testing.T) {
			base := runtime.NumGoroutine()
			var log []loopEpoch
			eng := loggingEngine(&log)
			static, err := eng.Run(context.Background(), res, sc)
			if err != nil {
				t.Fatal(err)
			}
			sc.Adaptive = true
			adaptive, err := eng.Run(context.Background(), res, sc)
			if err != nil {
				t.Fatal(err)
			}
			settleGoroutines(t, base)

			if len(log) == 0 || log[0].Reason != "create" {
				t.Fatalf("epoch log %+v does not start with the create epoch", log)
			}
			drifts := log[1:]
			if len(drifts) == 0 || adaptive.Resolves != len(drifts) {
				t.Fatalf("report counts %d re-solves, the Manager published %d drift epochs", adaptive.Resolves, len(drifts))
			}
			pivots := int64(0)
			for _, ep := range drifts {
				if ep.Reason != "drift" || ep.MaxDrift <= 0.1 {
					t.Fatalf("epoch v%d: reason %q, max drift %v; want drift beyond the 10%% threshold", ep.Version, ep.Reason, ep.MaxDrift)
				}
				pivots += int64(ep.Pivots)
			}
			if adaptive.LPPivots != pivots {
				t.Fatalf("report: %d pivots; epochs: %d", adaptive.LPPivots, pivots)
			}
			t.Logf("static %d tasks, adaptive %d tasks with %d re-solves", static.Done, adaptive.Done, adaptive.Resolves)
			if adaptive.Done < static.Done-startup {
				t.Errorf("adaptive run completed %d tasks, static quotas %d: more than the %d-task start-up transient behind",
					adaptive.Done, static.Done, startup)
			}

			// The run's context ends at its first drift epoch.
			ctx, cancel := context.WithCancel(context.Background())
			stopping := New(Config{})
			stopping.published = func(now float64, snap *control.Snapshot) {
				if snap.Epoch.Reason == "drift" {
					cancel()
				}
			}
			if _, err := stopping.Run(ctx, res, sc); !errors.Is(err, context.Canceled) {
				t.Fatalf("run cancelled at its first drift epoch: %v, want context.Canceled", err)
			}
			settleGoroutines(t, base)

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
