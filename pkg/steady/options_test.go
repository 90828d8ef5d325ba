package steady_test

import (
	"context"
	"errors"
	"testing"

	"repro/pkg/steady"
	"repro/pkg/steady/platform"
)

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
