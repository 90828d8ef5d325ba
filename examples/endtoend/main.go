// End-to-end grid campaign: the full §5 pipeline on a platform whose
// topology is *not* known in advance. All steady-state solving and
// the drifting deployment go through the public pkg/... API; only
// topology discovery (§5.3, internal/discovery) has no public surface
// yet — it is the ROADMAP's remaining internal-only stage.
//
//  1. probe the hidden platform ENV-style and reconstruct the
//     macroscopic tree (§5.3);
//
//  2. solve the steady-state LP on the reconstructed model (§3.1) and
//     rebuild the periodic schedule (§4.1);
//
//  3. deploy: replay the plan online with epoch re-planning when the
//     real platform drifts (§5.5), via pkg/steady/sim;
//
//  4. compare against what the naive ping model would have promised.
//
//     go run ./examples/endtoend
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/discovery"
	"repro/pkg/steady"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
	"repro/pkg/steady/sim"
)

// solve runs the facade's master-slave solver rooted at the named
// node (every platform in this example calls its master "M" except
// the naive model, which keeps node order instead of names).
func solve(p *platform.Platform, root string) *steady.Result {
	solver, err := steady.New(steady.Spec{Problem: "masterslave", Root: root})
	if err != nil {
		log.Fatal(err)
	}
	res, err := solver.Solve(context.Background(), p)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	// The hidden platform: a 2-level routed tree the scheduler cannot
	// see directly.
	hidden := platform.New()
	m := hidden.AddNode("M", platform.WInt(6))
	r1 := hidden.AddNode("R1", platform.WInf())
	r2 := hidden.AddNode("R2", platform.WInf())
	s1 := hidden.AddNode("S1", platform.WInt(1))
	s2 := hidden.AddNode("S2", platform.WInt(2))
	s3 := hidden.AddNode("S3", platform.WInt(1))
	s4 := hidden.AddNode("S4", platform.WInt(3))
	hidden.AddEdge(m, r1, rat.FromInt(1))
	hidden.AddEdge(m, r2, rat.FromInt(2))
	hidden.AddEdge(r1, s1, rat.FromInt(1))
	hidden.AddEdge(r1, s2, rat.FromInt(2))
	hidden.AddEdge(r2, s3, rat.FromInt(1))
	hidden.AddEdge(r2, s4, rat.FromInt(1))

	// --- 1. discovery -------------------------------------------------
	pr, err := discovery.NewProber(hidden, m, []int{s1, s2, s3, s4})
	if err != nil {
		log.Fatal(err)
	}
	rec, err := discovery.ReconstructTree(pr)
	if err != nil {
		log.Fatal(err)
	}
	naive := discovery.NaiveComplete(pr)
	fmt.Printf("discovery used %d probes; reconstructed platform:\n%s\n", pr.Probes, rec)

	// --- 2. plan ------------------------------------------------------
	trueRes := solve(hidden, "M")
	recRes := solve(rec, "M")
	naiveRes := solve(naive, "") // root = first node
	fmt.Printf("steady-state throughput: naive pings %v <= reconstructed %v <= true %v\n",
		naiveRes.Throughput, recRes.Throughput, trueRes.Throughput)

	per, err := recRes.Reconstruct()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("periodic plan on the reconstructed model: %v\n\n", per.Summary)

	// --- 3. deploy with drift -----------------------------------------
	// The R1 subtree's uplink degrades 3x halfway through; the §5.5
	// adaptive controller re-solves the LP every 50 time-units.
	eng := sim.New(sim.Config{})
	rep, err := eng.Run(context.Background(), trueRes, sim.Scenario{
		Name:    "deploy",
		Horizon: 600,
		Slowdowns: []sim.Slowdown{
			{Edge: sim.EdgeKey("M", "R1"), Factor: 3, From: 300},
		},
		Adaptive:    true,
		EpochLength: 50,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployment over 600 time-units with a drift at t=300:\n")
	fmt.Printf("  %d tasks completed (%d LP re-solves)\n", rep.Done, rep.Resolves)
	fmt.Printf("  achieved %.4f tasks/time-unit = %.2f of the pre-drift certified %v\n",
		rep.AchievedValue, rep.RatioValue, trueRes.Throughput)
}
