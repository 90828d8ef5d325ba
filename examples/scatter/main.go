// Pipelined scatter: solve SSPS(G) (§3.2) on a random grid platform
// through the public facade, reconstruct the periodic schedule and
// print the busy links and communication orchestration of one period.
//
//	go run ./examples/scatter
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/pkg/steady"
	"repro/pkg/steady/platform"
)

func main() {
	rng := rand.New(rand.NewSource(2004)) // the paper's year, for luck
	p := platform.Grid(rng, 2, 3, 4, 3)
	src := p.Name(0)
	targets := []string{p.Name(2), p.Name(4), p.Name(5)}

	fmt.Println("A 2x3 grid platform:")
	fmt.Print(p)
	fmt.Printf("\nsource %s scatters distinct messages to %v\n", src, targets)

	solver, err := steady.New(steady.Spec{Problem: "scatter", Root: src, Targets: targets})
	if err != nil {
		log.Fatal(err)
	}
	res, err := solver.Solve(context.Background(), p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noptimal pipelined throughput TP = %v = %.4f scatters/time-unit\n",
		res.Throughput, res.ThroughputFloat())

	fmt.Println("\nper-link busy fractions of the LP witness (nonzero only):")
	for _, l := range res.Links() {
		if !l.Busy.IsZero() {
			fmt.Printf("  %s->%s: busy %v\n", l.From, l.To, l.Busy)
		}
	}

	sched, err := res.Reconstruct()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nperiodic schedule: %v\n", sched.Summary)

	fmt.Println("\ncommunication orchestration (each slot is a matching):")
	for i, s := range sched.Slots {
		fmt.Printf("  slot %d (dur %v):", i, s.Dur)
		for _, l := range s.Links {
			fmt.Printf(" %s->%s", l[0], l[1])
		}
		fmt.Println()
	}
}
