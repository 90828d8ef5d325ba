// Command simulate demonstrates the public simulation subsystem
// (pkg/steady/sim): solve a steady-state problem once, replay its
// reconstructed periodic schedule in exact simulated time, stress it
// under a dynamic scenario, and run the same result over a grid of
// scenarios.
//
// Run with:
//
//	go run ./examples/simulate
package main

import (
	"context"
	"fmt"
	"log"

	"repro/pkg/steady"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/sim"
)

func main() {
	ctx := context.Background()
	p := platform.Figure1()
	solver, err := steady.New(steady.Spec{Problem: "masterslave", Root: "P1"})
	if err != nil {
		log.Fatal(err)
	}
	res, err := solver.Solve(ctx, p)
	if err != nil {
		log.Fatal(err)
	}
	eng := sim.New(sim.Config{})

	// 1. Exact periodic replay: the reconstructed schedule reaches the
	// certified LP throughput after a transient bounded by the
	// platform depth (§4.2 asymptotic optimality, observed).
	rep, err := eng.Run(ctx, res, sim.Scenario{Periods: 500})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("static replay:   certified %s, achieved %s over %d periods (ratio %.4f, steady from period %d)\n",
		rep.Certified, rep.Achieved, rep.Periods, rep.RatioValue, rep.SteadyAfter)

	// 2. Dynamic scenario: the event-driven §5.5 simulator under a
	// churn-style outage (P2 practically offline for a while), with
	// adaptive epoch-based LP re-solving.
	storm := sim.Scenario{
		Name:        "p2-outage",
		Tasks:       1500,
		Slowdowns:   []sim.Slowdown{{Node: "P2", Factor: 50, From: 100, Until: 400}},
		Adaptive:    true,
		EpochLength: 50,
	}
	rep, err = eng.Run(ctx, res, storm)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dynamic outage:  %d tasks in %.1f time units = %.4f/unit (%.2fx certified, %d adaptive re-solves)\n",
		rep.Done, rep.Makespan, rep.AchievedValue, rep.RatioValue, rep.Resolves)

	// 3. Scenario grid: the result is solved once and Run under each
	// scenario in turn. A grid over many platforms is POST /v1/simsweep:
	// batch.Pool over the server's cache, one streamed record per cell.
	grid := []sim.Scenario{
		{Name: "short", Periods: 10},
		{Name: "long", Periods: 1000},
		storm,
	}
	fmt.Println("scenario grid:")
	for _, sc := range grid {
		rep, err := eng.Run(ctx, res, sc)
		if err != nil {
			log.Fatalf("%s: %v", sc.Name, err)
		}
		fmt.Printf("  %-10s %-8s ratio %.4f\n", rep.Scenario, rep.Kind, rep.RatioValue)
	}
}
