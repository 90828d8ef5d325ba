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
