package steady_test

import (
	"context"
	"fmt"

	"repro/pkg/steady"
	"repro/pkg/steady/platform"
)

// ExampleSolver_masterSlave solves the paper's §3.1 master-slave
// problem on the Figure 1 platform: the optimal steady state
// processes 4/3 tasks per time-unit.
func ExampleSolver_masterSlave() {
	solver, err := steady.New(steady.Spec{Problem: "masterslave", Root: "P1"})
	if err != nil {
		panic(err)
	}
	res, err := solver.Solve(context.Background(), platform.Figure1())
	if err != nil {
		panic(err)
	}
	fmt.Println(solver.Name())
	fmt.Println("ntask(G) =", res.Throughput)
	// Output:
	// masterslave[root=P1]
	// ntask(G) = 4/3
}

// ExampleResult_Reconstruct turns the LP solution into a concrete
// periodic schedule (§4.1): the period is the lcm of the activity
// variables' denominators, and the communications of one period are
// orchestrated into conflict-free slots.
func ExampleResult_Reconstruct() {
	solver, _ := steady.New(steady.Spec{Problem: "masterslave", Root: "P1"})
	res, _ := solver.Solve(context.Background(), platform.Figure1())
	sch, err := res.Reconstruct()
	if err != nil {
		panic(err)
	}
	fmt.Println(sch.Summary)
	// Output:
	// period T=6, 8 tasks/period (rate 4/3), 2 comm slots
}

// ExampleNew_multicast reproduces the Figure 2/3 counterexample: the
// achievable sum-LP sits strictly below the exact tree packing, which
// sits strictly below the max-operator upper bound.
func ExampleNew_multicast() {
	p := platform.Figure2()
	for _, problem := range []string{"multicast-sum", "multicast-trees", "multicast"} {
		solver, _ := steady.New(steady.Spec{
			Problem: problem,
			Root:    "P0",
			Targets: []string{"P5", "P6"},
		})
		res, err := solver.Solve(context.Background(), p)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-15s TP = %v\n", problem, res.Throughput)
	}
	// Output:
	// multicast-sum   TP = 1/2
	// multicast-trees TP = 3/4
	// multicast       TP = 1
}

// ExampleFingerprint shows the canonical platform hash that keys the
// batch package's LP-solution cache: construction-independent, but
// sensitive to any weight change.
func ExampleFingerprint() {
	a := platform.Figure1()
	b := platform.Figure1()
	fmt.Println("same content, same hash:", steady.Fingerprint(a) == steady.Fingerprint(b))
	fmt.Println("different content:      ", steady.Fingerprint(a) == steady.Fingerprint(platform.Figure2()))
	// Output:
	// same content, same hash: true
	// different content:       false
}
