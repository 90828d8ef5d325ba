// Dynamic adaptation (§5.5): a master-slave computation on a platform
// whose link speeds drift over time. Two schedulers compete over the
// same horizon through the public simulation engine: LP quotas frozen
// at t = 0, and the phase-based adaptive scheduler that measures,
// forecasts (NWS-style) and re-solves the LP whenever a forecast drifts
// beyond 10 % — the control plane's loop, each re-solve a cold solve
// of the new estimate.
//
// The whole comparison runs against pkg/... imports only: build the
// platform with pkg/steady/platform, solve with pkg/steady, describe
// the drift as a pkg/steady/sim Scenario, and read the outcome off
// the simulation Report.
//
//	go run ./examples/adaptive
package main

import (
	"context"
	"fmt"
	"log"

	"repro/pkg/steady"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
	"repro/pkg/steady/sim"
)

func main() {
	p := platform.Star(platform.WInt(25),
		[]platform.Weight{platform.WInt(2), platform.WInt(2), platform.WInt(4)},
		[]rat.Rat{rat.FromInt(1), rat.FromInt(1), rat.FromInt(2)})

	solver, err := steady.New(steady.Spec{Problem: "masterslave", Root: "P0"})
	if err != nil {
		log.Fatal(err)
	}
	res, err := solver.Solve(context.Background(), p)
	if err != nil {
		log.Fatal(err)
	}

	// The drift: worker 1's link runs 4x slower until t=400, worker
	// 2's the other way around; worker 3's link wanders randomly.
	const horizon = 1200
	drift := map[string]sim.TraceSpec{
		sim.EdgeKey("P0", "P1"): {Kind: "steps", Times: []float64{0, 400}, Mult: []float64{4, 1}},
		sim.EdgeKey("P0", "P2"): {Kind: "steps", Times: []float64{0, 400}, Mult: []float64{1, 4}},
		sim.EdgeKey("P0", "P3"): {Kind: "random-walk", Horizon: horizon, Step: 80, Lo: 1, Hi: 3},
	}

	fmt.Println("Platform (nominal):")
	fmt.Print(p)
	fmt.Printf("\nnominal LP: ntask = %v; horizon %v, link loads drift at t=400\n\n", res.Throughput, float64(horizon))

	eng := sim.New(sim.Config{})
	run := func(name string, sc sim.Scenario) *sim.Report {
		rep, err := eng.Run(context.Background(), res, sc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s %4d tasks  (achieved %.4f /t, %.2f of nominal LP)\n",
			name, rep.Done, rep.AchievedValue, rep.RatioValue)
		return rep
	}

	run("static LP quotas (t=0)", sim.Scenario{
		Name: "static-quotas", Horizon: horizon, EdgeLoad: drift, Seed: 55,
	})
	adaptive := run("adaptive (re-solve on drift)", sim.Scenario{
		Name: "adaptive", Horizon: horizon, EdgeLoad: drift, Seed: 55,
		Adaptive: true, EpochLength: 75,
	})

	fmt.Printf("\nthe adaptive controller re-solved the steady-state LP %d times\n", adaptive.Resolves)
	fmt.Printf("(%d exact simplex pivots in total)\n", adaptive.LPPivots)
	fmt.Println("\n'A key feature of steady-state scheduling is that it is adaptive' (§5.5).")
}
