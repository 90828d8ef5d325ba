package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"repro/pkg/steady"
	"repro/pkg/steady/obs"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/sim/event"
)

// determinismCells is the (scenario x solver) grid of the determinism
// property test: every registered replay substrate and every dynamic
// feature (load traces, arrival generators, failure windows, the
// adaptive re-solver) appears at least once.
func determinismCells() []struct {
	name string
	spec steady.Spec
	p    *platform.Platform
	sc   Scenario
} {
	fig1 := platform.Figure1()
	fig2 := platform.Figure2()
	ms1 := steady.Spec{Problem: "masterslave", Root: "P1"}
	return []struct {
		name string
		spec steady.Spec
		p    *platform.Platform
		sc   Scenario
	}{
		{"static-masterslave", ms1, fig1, Scenario{Periods: 50}},
		{"static-scatter", steady.Spec{Problem: "scatter", Root: "P1", Targets: []string{"P4", "P6"}}, fig1,
			Scenario{Periods: 50}},
		{"static-multicast-trees", steady.Spec{Problem: "multicast-trees", Root: "P0", Targets: []string{"P5", "P6"}}, fig2,
			Scenario{Periods: 50}},
		{"dynamic-slowdown", ms1, fig1,
			Scenario{Tasks: 60, Slowdowns: []Slowdown{{Node: "P2", Factor: 2, From: 10, Until: 60}}}},
		{"dynamic-walk", ms1, fig1,
			Scenario{Tasks: 60, Seed: 7, NodeLoad: map[string]TraceSpec{
				"P2": {Kind: "random-walk", Horizon: 200, Step: 10, Lo: 1, Hi: 3},
				"P5": {Kind: "random-walk", Horizon: 200, Step: 10, Lo: 1, Hi: 2},
			}}},
		{"dynamic-adaptive", ms1, fig1,
			Scenario{Tasks: 60, Adaptive: true, EpochLength: 10,
				Slowdowns: []Slowdown{{Edge: "P1->P2", Factor: 3, From: 20, Until: 80}}}},
		{"dynamic-poisson", ms1, fig1,
			Scenario{Seed: 11, Arrivals: &ArrivalSpec{Kind: "poisson", Rate: 2, Count: 80}}},
		{"dynamic-bursty", ms1, fig1,
			Scenario{Arrivals: &ArrivalSpec{Kind: "bursty", Burst: 10, Every: 8, Count: 60}}},
		{"dynamic-diurnal", ms1, fig1,
			Scenario{Seed: 3, Arrivals: &ArrivalSpec{Kind: "diurnal", Rate: 2, Period: 40, Peak: 0.8, Count: 60}}},
		{"dynamic-recorded", ms1, fig1,
			Scenario{Arrivals: &ArrivalSpec{Kind: "recorded", Times: []float64{0, 0, 1.5, 3, 7, 7, 12}}}},
		{"dynamic-failures", ms1, fig1,
			Scenario{Tasks: 60, Failures: []Failure{
				{Node: "P4", From: 5, Until: 25},
				{Edge: "P1->P3", From: 10, Until: 30},
			}}},
		{"dynamic-horizon-fig2", steady.Spec{Problem: "masterslave", Root: "P0"}, fig2,
			Scenario{Horizon: 150, Slowdowns: []Slowdown{{Node: "P3", Factor: 4, From: 30}}}},
	}
}

// tracedRun executes one cell with tracing and returns the canonical
// byte forms compared by the determinism tests: the JSONL event trace
// and the JSON-encoded report.
func tracedRun(t *testing.T, eng *Engine, res *steady.Result, sc Scenario) (trace, report []byte) {
	t.Helper()
	var buf bytes.Buffer
	rec := event.NewWriterRecorder(&buf)
	rep, err := eng.RunRecorded(context.Background(), res, sc, rec)
	if err != nil {
		t.Fatalf("RunRecorded: %v", err)
	}
	if err := rec.Err(); err != nil {
		t.Fatalf("writing trace: %v", err)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), out
}

// TestDeterministicReplay is the tentpole property test: every
// (scenario x solver) cell, run twice with the same seed, produces a
// byte-identical report and byte-identical event trace. CI runs this
// under -race, so any hidden shared state or map-order dependence in
// the event core surfaces here.
func TestDeterministicReplay(t *testing.T) {
	eng := New(Config{})
	for _, c := range determinismCells() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			res := solveOn(t, c.spec, c.p)
			trace1, rep1 := tracedRun(t, eng, res, c.sc)
			trace2, rep2 := tracedRun(t, eng, res, c.sc)
			if !bytes.Equal(rep1, rep2) {
				t.Errorf("same seed, different reports:\n%s\n%s", rep1, rep2)
			}
			if !bytes.Equal(trace1, trace2) {
				t.Errorf("same seed, different traces (%d vs %d bytes)", len(trace1), len(trace2))
			}
			if len(trace1) == 0 {
				t.Error("trace is empty")
			}
			// The trace must be well-formed JSONL with dense sequence
			// numbers from 0 — the replayability contract.
			dec := json.NewDecoder(bytes.NewReader(trace1))
			var seq int64
			for dec.More() {
				var rec map[string]any
				if err := dec.Decode(&rec); err != nil {
					t.Fatalf("record %d: %v", seq, err)
				}
				if got := int64(rec["seq"].(float64)); got != seq {
					t.Fatalf("record %d has seq %d", seq, got)
				}
				seq++
			}
		})
	}
}

// TestDeterministicSeedDivergence is the complement: cells whose
// scenario consumes randomness must produce different traces under
// different seeds (otherwise the seed is not actually plumbed through).
func TestDeterministicSeedDivergence(t *testing.T) {
	eng := New(Config{})
	for _, c := range determinismCells() {
		c := c
		seeded := c.sc.Arrivals != nil && c.sc.Arrivals.Kind != "recorded" && c.sc.Arrivals.Kind != "bursty"
		for _, ts := range c.sc.NodeLoad {
			if ts.Kind == "random-walk" {
				seeded = true
			}
		}
		if !seeded {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			res := solveOn(t, c.spec, c.p)
			trace1, _ := tracedRun(t, eng, res, c.sc)
			other := c.sc
			other.Seed += 1
			trace2, _ := tracedRun(t, eng, res, other)
			if bytes.Equal(trace1, trace2) {
				t.Errorf("seeds %d and %d produced identical traces", c.sc.Seed, other.Seed)
			}
		})
	}
}

// TestTraceMatchesUntracedRun pins that observation does not change
// the simulation, in two layers: attaching a recorder must leave the
// report (minus the trace_events counter) equal to the untraced
// run's, and attaching a metrics registry (Config.Obs) must leave
// both the report and the event trace byte-identical — the
// trace-purity invariant the observability layer is built on.
func TestTraceMatchesUntracedRun(t *testing.T) {
	eng := New(Config{})
	reg := obs.New()
	obsEng := New(Config{Obs: reg})
	for _, c := range determinismCells() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			res := solveOn(t, c.spec, c.p)
			plain, err := eng.Run(context.Background(), res, c.sc)
			if err != nil {
				t.Fatal(err)
			}
			trace, traced := tracedRun(t, eng, res, c.sc)
			var got Report
			if err := json.Unmarshal(traced, &got); err != nil {
				t.Fatal(err)
			}
			if got.TraceEvents == 0 {
				t.Error("traced run reported no trace events")
			}
			got.TraceEvents = 0
			want := fmt.Sprintf("%+v", *plain)
			if have := fmt.Sprintf("%+v", got); have != want {
				t.Errorf("tracing changed the report:\n traced: %s\n plain:  %s", have, want)
			}

			// Metrics leg: the same cell through an engine with a live
			// registry must produce byte-identical trace and report.
			obsTrace, obsRep := tracedRun(t, obsEng, res, c.sc)
			if !bytes.Equal(obsTrace, trace) {
				t.Errorf("metrics collection changed the trace (%d vs %d bytes)", len(obsTrace), len(trace))
			}
			if !bytes.Equal(obsRep, traced) {
				t.Errorf("metrics collection changed the report:\n observed: %s\n plain:    %s", obsRep, traced)
			}
		})
	}
	// The registry must actually have seen the runs — a silently
	// detached registry would make the purity check vacuous.
	runs := reg.CounterVec("steady_sim_runs_total", "", "kind")
	total := runs.With("periodic").Value() + runs.With("online").Value() + runs.With("greedy").Value()
	if total != int64(len(determinismCells())) {
		t.Errorf("observed engine recorded %d runs, want %d", total, len(determinismCells()))
	}
	if reg.Counter("steady_sim_events_total", "").Value() == 0 {
		t.Error("observed engine recorded no events")
	}
}
