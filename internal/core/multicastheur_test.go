package core

import (
	"math/rand"
	"testing"

	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

func TestGreedyPackingFigure2(t *testing.T) {
	p := platform.Figure2()
	src := p.NodeByName("P0")
	targets := platform.Figure2Targets(p)
	greedy, err := GreedyTreePacking(p, src, targets)
	if err != nil {
		t.Fatal(err)
	}
	if err := greedy.CheckPacking(); err != nil {
		t.Fatal(err)
	}
	exact, err := SolveTreePacking(p, src, targets)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Throughput.Less(greedy.Throughput) {
		t.Fatalf("greedy %v beats the exact optimum %v", greedy.Throughput, exact.Throughput)
	}
	// The heuristic should get at least the single-best-tree value.
	_, single, err := BestSingleTree(p, src, targets)
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Throughput.Less(single) {
		t.Fatalf("greedy %v below single best tree %v", greedy.Throughput, single)
	}
	t.Logf("Figure 2 greedy packing: %v of exact %v (bound 1)", greedy.Throughput, exact.Throughput)
}

func TestGreedyPackingNeverExceedsBoundOrExact(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	checked := 0
	for attempt := 0; attempt < 30 && checked < 8; attempt++ {
		p := platform.RandomConnected(rng, 5+rng.Intn(2), rng.Intn(4), 3, 3, 0)
		if p.NumEdges() > 14 {
			continue
		}
		targets := []int{1, 2}
		greedy, err := GreedyTreePacking(p, 0, targets)
		if err != nil {
			continue // budget-blocked instances are acceptable for the heuristic
		}
		if err := greedy.CheckPacking(); err != nil {
			t.Fatalf("invalid greedy packing: %v", err)
		}
		bound, err := SolveMulticastBound(p, 0, targets)
		if err != nil {
			t.Fatal(err)
		}
		if bound.Throughput.Less(greedy.Throughput) {
			t.Fatalf("greedy %v exceeds LP bound %v", greedy.Throughput, bound.Throughput)
		}
		exact, err := SolveTreePacking(p, 0, targets)
		if err != nil {
			t.Fatal(err)
		}
		if exact.Throughput.Less(greedy.Throughput) {
			t.Fatalf("greedy %v beats exact %v", greedy.Throughput, exact.Throughput)
		}
		checked++
	}
	if checked < 4 {
		t.Fatalf("only %d instances checked", checked)
	}
}

func TestGreedyPackingScalesBeyondEnumeration(t *testing.T) {
	// A platform with > 63 edges: enumeration refuses, greedy works.
	rng := rand.New(rand.NewSource(17))
	p := platform.Clique(rng, 9, 3, 3) // 72 directed edges
	if p.NumEdges() <= 63 {
		t.Fatalf("test platform too small: %d edges", p.NumEdges())
	}
	targets := []int{1, 2, 3}
	if _, err := EnumerateMulticastTrees(p, 0, targets, nil); err == nil {
		t.Fatal("enumeration should refuse > 63 edges")
	}
	greedy, err := GreedyTreePacking(p, 0, targets)
	if err != nil {
		t.Fatal(err)
	}
	if err := greedy.CheckPacking(); err != nil {
		t.Fatal(err)
	}
	bound, err := SolveMulticastBound(p, 0, targets)
	if err != nil {
		t.Fatal(err)
	}
	if bound.Throughput.Less(greedy.Throughput) {
		t.Fatalf("greedy %v exceeds bound %v", greedy.Throughput, bound.Throughput)
	}
	ratio := greedy.Throughput.Div(bound.Throughput)
	t.Logf("9-clique: greedy %v of bound %v (%.2f)", greedy.Throughput, bound.Throughput, ratio.Float64())
	// The heuristic should not be embarrassing on a dense platform.
	if ratio.Less(rat.New(1, 4)) {
		t.Fatalf("greedy achieves only %v of the bound", ratio)
	}
}

func TestCheckPackingCatchesOverload(t *testing.T) {
	p := platform.Figure2()
	src := p.NodeByName("P0")
	targets := platform.Figure2Targets(p)
	exact, err := SolveTreePacking(p, src, targets)
	if err != nil {
		t.Fatal(err)
	}
	if err := exact.CheckPacking(); err != nil {
		t.Fatal(err)
	}
	// Inflate a rate: the port check must fire (and throughput
	// mismatch too; overload comes first).
	bad := *exact
	bad.Trees = append([]MulticastTree(nil), exact.Trees...)
	bad.Trees[0].Rate = rat.FromInt(5)
	if err := bad.CheckPacking(); err == nil {
		t.Fatal("expected overload error")
	}
}
