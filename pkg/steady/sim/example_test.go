package sim_test

import (
	"context"
	"fmt"

	"repro/pkg/steady"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/sim"
)

// ExampleEngine_Run solves the master-slave problem on the paper's
// Figure 1 platform and replays the reconstructed periodic schedule
// in exact simulated time: the achieved throughput approaches the
// certified LP optimum once the startup transient (bounded by the
// platform depth) has passed — §4.2's asymptotic optimality, observed
// rather than proved.
func ExampleEngine_Run() {
	solver, err := steady.New(steady.Spec{Problem: "masterslave", Root: "P1"})
	if err != nil {
		panic(err)
	}
	res, err := solver.Solve(context.Background(), platform.Figure1())
	if err != nil {
		panic(err)
	}

	eng := sim.New(sim.Config{})
	rep, err := eng.Run(context.Background(), res, sim.Scenario{Periods: 100})
	if err != nil {
		panic(err)
	}
	fmt.Println("certified  ", rep.Certified)
	fmt.Println("achieved   ", rep.Achieved)
	fmt.Println("steady from", rep.SteadyAfter)
	// Output:
	// certified   4/3
	// achieved    791/600
	// steady from 2
}

// ExampleEngine_Sweep fans a grid of (platform, solver, scenario)
// cells through a worker pool. Cells sharing a platform and solver
// solve their LP once — the sweep's cells share one batch.Cache — and
// each outcome carries a full simulation report.
func ExampleEngine_Sweep() {
	fig1 := platform.Figure1()
	spec := steady.Spec{Problem: "masterslave", Root: "P1"}
	cells := []sim.Cell{
		{ID: "short", Platform: fig1, Spec: spec, Scenario: sim.Scenario{Periods: 10}},
		{ID: "long", Platform: fig1, Spec: spec, Scenario: sim.Scenario{Periods: 1000}},
		{ID: "slowdown", Platform: fig1, Spec: spec, Scenario: sim.Scenario{
			Tasks:     200,
			Slowdowns: []sim.Slowdown{{Node: "P2", Factor: 2, From: 0, Until: 50}},
		}},
	}

	eng := sim.New(sim.Config{Workers: 4})
	for _, o := range eng.Sweep(context.Background(), cells) {
		if o.Err != nil {
			panic(o.Err)
		}
		fmt.Printf("%-8s %-8s ratio %.3f\n", o.ID, o.Report.Kind, o.Report.RatioValue)
	}
	// Output:
	// short    periodic ratio 0.887
	// long     periodic ratio 0.999
	// slowdown online   ratio 0.980
}
