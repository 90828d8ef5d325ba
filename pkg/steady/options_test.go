package steady_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/pkg/steady"
	"repro/pkg/steady/lp"
	"repro/pkg/steady/obs"
	"repro/pkg/steady/platform"
)

// TestWarmStartOption pins the functional-option warm-start path: a
// second solve of the same instance seeded with the first result's
// basis runs warm and certifies the same exact throughput.
func TestWarmStartOption(t *testing.T) {
	solver, err := steady.New(steady.Spec{Problem: "masterslave", Root: "P1"})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := solver.Solve(context.Background(), platform.Figure1())
	if err != nil {
		t.Fatal(err)
	}
	if cold.WarmStarted {
		t.Fatal("cold solve claims a warm start")
	}
	if cold.Basis() == nil {
		t.Fatal("cold solve exposes no basis")
	}

	warm, err := solver.Solve(context.Background(), platform.Figure1(),
		steady.WarmStart(cold.Basis()))
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmStarted {
		t.Fatal("WarmStart option ignored")
	}
	if !warm.Throughput.Equal(cold.Throughput) {
		t.Fatalf("warm throughput %v != cold %v", warm.Throughput, cold.Throughput)
	}
	if warm.Pivots > cold.Pivots {
		t.Fatalf("warm re-solve of the identical LP took %d pivots, cold took %d", warm.Pivots, cold.Pivots)
	}

	// A nil basis is a documented no-op, not a crash or a warm claim.
	again, err := solver.Solve(context.Background(), platform.Figure1(), steady.WarmStart(nil))
	if err != nil {
		t.Fatal(err)
	}
	if again.WarmStarted {
		t.Fatal("WarmStart(nil) claims a warm start")
	}
}

// TestEmptyWarmHintFallsBackCold is the served shape of a hostile or
// stale peer basis: a hint with the LP's own dimensions and no entries,
// through WarmStart as steadyd solves. Every row is left to
// padding, and the collectives' equality rows once let the padded pass
// call a solvable LP unbounded ("core: commodity-flow LP unbounded");
// the hint must be rejected and the cold solve's optimum served.
func TestEmptyWarmHintFallsBackCold(t *testing.T) {
	ctx := context.Background()
	p := platform.RandomConnected(rand.New(rand.NewSource(104)), 8, 8, 5, 5, 0.15)
	targets := []string{p.Name(1), p.Name(2), p.Name(3)}
	for _, spec := range []steady.Spec{
		{Problem: "masterslave"},
		{Problem: "scatter", Targets: targets},
		{Problem: "multicast", Targets: targets},
		{Problem: "broadcast"},
		{Problem: "reduce"},
	} {
		solver, err := steady.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := solver.Solve(ctx, p)
		if err != nil {
			t.Fatalf("%s: cold: %v", spec.Problem, err)
		}
		donor, err := json.Marshal(cold.Basis())
		if err != nil {
			t.Fatal(err)
		}
		var shape struct{ Vars, Cons int }
		if err := json.Unmarshal(donor, &shape); err != nil {
			t.Fatal(err)
		}
		var empty lp.Basis
		if err := json.Unmarshal([]byte(fmt.Sprintf(`{"vars":%d,"cons":%d}`, shape.Vars, shape.Cons)), &empty); err != nil {
			t.Fatal(err)
		}
		reg := obs.New()
		hinted, err := solver.Solve(ctx, p, steady.WarmStart(&empty), steady.WithObs(reg))
		if err != nil {
			t.Fatalf("%s: empty hint: %v", spec.Problem, err)
		}
		if !hinted.Throughput.Equal(cold.Throughput) {
			t.Fatalf("%s: throughput %v under an empty hint, %v cold", spec.Problem, hinted.Throughput, cold.Throughput)
		}
		// masterslave's variables are all range-bounded, so its padded
		// pass has no ray to find and may legitimately run warm.
		if spec.Problem != "masterslave" && (hinted.WarmStarted || !countsOneWarmReject(t, reg)) {
			t.Fatalf("%s: empty hint not counted as a warm_reject (warm_started %v)", spec.Problem, hinted.WarmStarted)
		}
	}
}

// countsOneWarmReject reports that the solves observed on reg turned
// away exactly one warm basis.
func countsOneWarmReject(t *testing.T, reg *obs.Registry) bool {
	t.Helper()
	var metrics strings.Builder
	if err := reg.WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	return strings.Contains(metrics.String(), `steady_lp_fallbacks_total{kind="warm_reject"} 1`)
}

// TestImpliedBoundHintFallsBackCold is the served shape of a basis
// from a peer that still gives every bound a row: it names the slacks
// of the s_e <= 1 rows, which this build's form leaves to the port rows
// that imply them. The hint must not map: cold throughput and basis
// bytes, and one warm_reject on the solve's registry.
func TestImpliedBoundHintFallsBackCold(t *testing.T) {
	ctx := context.Background()
	p := platform.RandomConnected(rand.New(rand.NewSource(104)), 8, 8, 5, 5, 0.15)
	for _, problem := range []string{"masterslave", "broadcast"} {
		solver, err := steady.New(steady.Spec{Problem: problem})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := solver.Solve(ctx, p)
		if err != nil {
			t.Fatalf("%s: cold: %v", problem, err)
		}
		donor, err := json.Marshal(cold.Basis())
		if err != nil {
			t.Fatal(err)
		}
		// What that peer ships for this vertex: the same columns plus,
		// as every s_e here is below 1, the slack of each s_e <= 1 —
		// the task-flow LP's last variables, the commodity-flow LP's
		// first. A form with those rows warm-starts from it in no pivot.
		var old struct {
			Vars    int              `json:"vars"`
			Cons    int              `json:"cons"`
			Entries []map[string]any `json:"entries"`
		}
		if err := json.Unmarshal(donor, &old); err != nil {
			t.Fatal(err)
		}
		first := map[string]int{"masterslave": old.Vars - p.NumEdges(), "broadcast": 0}[problem]
		for e := 0; e < p.NumEdges(); e++ {
			entry := fmt.Sprintf(`{"k":"bslack","i":%d}`, first+e)
			if bytes.Contains(donor, []byte(entry)) {
				t.Fatalf("%s: this build's own basis carries %s", problem, entry)
			}
			old.Entries = append(old.Entries, map[string]any{"k": "bslack", "i": first + e})
		}
		shipped, err := json.Marshal(old)
		if err != nil {
			t.Fatal(err)
		}
		var hint lp.Basis
		if err := json.Unmarshal(shipped, &hint); err != nil {
			t.Fatal(err)
		}
		reg := obs.New()
		hinted, err := solver.Solve(ctx, p, steady.WarmStart(&hint), steady.WithObs(reg))
		if err != nil {
			t.Fatalf("%s: hinted: %v", problem, err)
		}
		got, err := json.Marshal(hinted.Basis())
		if err != nil {
			t.Fatal(err)
		}
		if hinted.WarmStarted || !hinted.Throughput.Equal(cold.Throughput) || !bytes.Equal(got, donor) {
			t.Fatalf("%s: warm_started %v, throughput %v, basis %s; cold: %v, %s",
				problem, hinted.WarmStarted, hinted.Throughput, got, cold.Throughput, donor)
		}
		if !countsOneWarmReject(t, reg) {
			t.Fatalf("%s: hint naming a dropped row not counted as a warm_reject", problem)
		}
	}
}

// TestTypedErrors pins the sentinel-error contract of New, Validate
// and Solve: callers branch with errors.Is, the HTTP service maps all
// three to 400.
func TestTypedErrors(t *testing.T) {
	if _, err := steady.New(steady.Spec{Problem: "nope"}); !errors.Is(err, steady.ErrUnknownProblem) {
		t.Fatalf("unknown problem: %v does not wrap ErrUnknownProblem", err)
	}
	if _, err := steady.New(steady.Spec{Problem: "scatter"}); !errors.Is(err, steady.ErrBadSpec) {
		t.Fatalf("scatter without targets: %v does not wrap ErrBadSpec", err)
	}
	if _, err := steady.New(steady.Spec{Problem: "broadcast", Model: steady.SendOrReceive}); !errors.Is(err, steady.ErrBadSpec) {
		t.Fatalf("broadcast under send-or-receive: %v does not wrap ErrBadSpec", err)
	}
	if _, err := steady.New(steady.Spec{Problem: "masterslave", Model: steady.PortModel(7)}); !errors.Is(err, steady.ErrBadSpec) {
		t.Fatalf("undefined port model: %v does not wrap ErrBadSpec", err)
	}

	for _, spec := range []steady.Spec{
		{Problem: "nope"},
		{Problem: "scatter"},
		{Problem: "masterslave", Model: steady.PortModel(7)},
	} {
		if err := spec.Validate(); err == nil {
			t.Fatalf("Validate accepted %+v", spec)
		}
	}
	if err := (steady.Spec{Problem: "masterslave", Root: "P1"}).Validate(); err != nil {
		t.Fatalf("Validate rejected a good spec: %v", err)
	}
	// Validate resolves node names only at Solve time, by design.
	if err := (steady.Spec{Problem: "masterslave", Root: "ZZZ"}).Validate(); err != nil {
		t.Fatalf("Validate rejected a spec whose root only a platform can judge: %v", err)
	}

	solver, _ := steady.New(steady.Spec{Problem: "masterslave", Root: "ZZZ"})
	if _, err := solver.Solve(context.Background(), platform.Figure1()); !errors.Is(err, steady.ErrNoSuchNode) {
		t.Fatalf("unknown root: %v does not wrap ErrNoSuchNode", err)
	}
	solver, _ = steady.New(steady.Spec{Problem: "scatter", Root: "P1", Targets: []string{"P9"}})
	if _, err := solver.Solve(context.Background(), platform.Figure1()); !errors.Is(err, steady.ErrNoSuchNode) {
		t.Fatalf("unknown target: %v does not wrap ErrNoSuchNode", err)
	}
}
