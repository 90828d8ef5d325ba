// Quickstart: solve the steady-state master-slave problem on a small
// heterogeneous platform through the public pkg/steady facade,
// reconstruct the asymptotically optimal periodic schedule, and
// validate it in simulation.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/pkg/steady"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

func main() {
	// 1. Describe the platform of §2: a master, a pure forwarder
	//    (w = +inf) and two workers, with oriented weighted links.
	//    (pkg/steady/platform is the facade's input type — platforms can
	//    also be loaded from JSON with platform.ReadJSON.)
	p := platform.New()
	master := p.AddNode("master", platform.WInt(4)) // 4 time units per task
	relay := p.AddNode("relay", platform.WInf())    // forwards, never computes
	fast := p.AddNode("fast", platform.WInt(1))
	slow := p.AddNode("slow", platform.WInt(3))
	p.AddEdge(master, relay, rat.New(1, 2)) // half a time unit per task file
	p.AddEdge(relay, fast, rat.One())
	p.AddEdge(relay, slow, rat.One())
	p.AddEdge(master, slow, rat.FromInt(2)) // a second, slower route

	fmt.Print(p)

	// 2. Solve the §3.1 linear program SSMS(G) through the facade.
	solver, err := steady.New(steady.Spec{Problem: "masterslave", Root: "master"})
	if err != nil {
		log.Fatal(err)
	}
	res, err := solver.Solve(context.Background(), p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noptimal steady-state throughput ntask(G) = %v = %.4f tasks/time-unit\n",
		res.Throughput, res.ThroughputFloat())
	for _, n := range res.Nodes() {
		fmt.Printf("  %-7s computes %v of the time (%v tasks/unit)\n",
			n.Name, n.Alpha, n.Rate)
	}

	// 3. Reconstruct the §4.1 periodic schedule: period = lcm of the
	//    denominators; communications orchestrated into matchings.
	sch, err := res.Reconstruct()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreconstructed schedule: %v\n", sch.Summary)
	for i, s := range sch.Slots {
		fmt.Printf("  slot %d (duration %v):", i, s.Dur)
		for _, l := range s.Links {
			fmt.Printf("  %s->%s", l[0], l[1])
		}
		fmt.Println()
	}

	// 4. Execute it from cold buffers: steady state is reached within
	//    depth(G) periods and every later period completes exactly
	//    T * ntask tasks (§4.2).
	stats, err := sch.Simulate(12)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulation (12 periods, cold start):\n")
	for pd, done := range stats.DonePerPeriod {
		fmt.Printf("  period %2d: %v tasks\n", pd, done)
	}
	fmt.Printf("steady state reached after %d periods (platform depth %d)\n",
		stats.SteadyAfter, p.MaxDepthFrom(master))
}
