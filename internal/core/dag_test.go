package core

import (
	"math/rand"
	"testing"

	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

func twoNodePlatform() *platform.Platform {
	p := platform.New()
	a := p.AddNode("A", platform.WInt(1))
	b := p.AddNode("B", platform.WInt(1))
	p.AddBoth(a, b, rat.One())
	return p
}

func TestDAGValidate(t *testing.T) {
	if err := ChainDAG(3).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := ForkJoinDAG(3).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &DAG{Ops: []rat.Rat{rat.One(), rat.One()},
		Files: []File{{From: 0, To: 1, Size: rat.One()}, {From: 1, To: 0, Size: rat.One()}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected cycle error")
	}
	if err := (&DAG{}).Validate(); err == nil {
		t.Fatal("expected empty error")
	}
	if err := (&DAG{Ops: []rat.Rat{rat.Zero()}}).Validate(); err == nil {
		t.Fatal("expected weight error")
	}
	if err := (&DAG{Ops: []rat.Rat{rat.One()},
		Files: []File{{From: 0, To: 0, Size: rat.One()}}}).Validate(); err == nil {
		t.Fatal("expected self-file error")
	}
}

func TestDAGShapes(t *testing.T) {
	c := ChainDAG(4)
	if len(c.Ops) != 4 || len(c.Files) != 3 {
		t.Fatal("chain shape wrong")
	}
	f := ForkJoinDAG(3)
	if len(f.Ops) != 5 || len(f.Files) != 6 {
		t.Fatal("fork-join shape wrong")
	}
}

func TestDAGSingleTaskEqualsMasterSlaveStyleBound(t *testing.T) {
	// A 1-task DAG on two unit nodes: both nodes compute, TP = 2.
	p := twoNodePlatform()
	d := &DAG{Ops: []rat.Rat{rat.One()}}
	rate, err := SolveDAGRateBound(p, d)
	if err != nil {
		t.Fatal(err)
	}
	if !rate.Throughput.Equal(ri(2)) {
		t.Fatalf("rate bound = %v, want 2", rate.Throughput)
	}
	alloc, err := SolveDAGAllocation(p, d)
	if err != nil {
		t.Fatal(err)
	}
	if !alloc.Throughput.Equal(ri(2)) {
		t.Fatalf("allocation = %v, want 2", alloc.Throughput)
	}
}

func TestDAGChainOnTwoNodes(t *testing.T) {
	// Chain T0->T1 (unit everything) on two unit nodes with unit
	// links. Each node can run both tasks locally (no comm): total
	// capacity 2 task-units/node => TP = 1 per node => 2 total / 2
	// tasks = 1. Allocation and rate bound agree.
	p := twoNodePlatform()
	d := ChainDAG(2)
	rate, err := SolveDAGRateBound(p, d)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := SolveDAGAllocation(p, d)
	if err != nil {
		t.Fatal(err)
	}
	if !rate.Throughput.Equal(ri(1)) {
		t.Fatalf("rate = %v, want 1", rate.Throughput)
	}
	if !alloc.Throughput.Equal(ri(1)) {
		t.Fatalf("alloc = %v, want 1", alloc.Throughput)
	}
}

func TestDAGRateBoundDominatesAllocation(t *testing.T) {
	// The rate LP relaxes instance consistency, so it always
	// dominates the allocation packing (E11's measured gap).
	p := platform.New()
	a := p.AddNode("A", platform.WInt(1))
	b := p.AddNode("B", platform.WInt(2))
	c := p.AddNode("C", platform.WInt(3))
	p.AddBoth(a, b, rat.One())
	p.AddBoth(b, c, ri(2))
	for _, d := range []*DAG{ChainDAG(2), ChainDAG(3), ForkJoinDAG(2)} {
		rate, err := SolveDAGRateBound(p, d)
		if err != nil {
			t.Fatal(err)
		}
		alloc, err := SolveDAGAllocation(p, d)
		if err != nil {
			t.Fatal(err)
		}
		if rate.Throughput.Less(alloc.Throughput) {
			t.Fatalf("rate bound %v below achievable %v", rate.Throughput, alloc.Throughput)
		}
	}
}

func TestDAGForwarderCannotCompute(t *testing.T) {
	p := platform.New()
	a := p.AddNode("A", platform.WInt(1))
	f := p.AddNode("F", platform.WInf())
	p.AddBoth(a, f, rat.One())
	d := ChainDAG(2)
	rate, err := SolveDAGRateBound(p, d)
	if err != nil {
		t.Fatal(err)
	}
	// Only A computes: 2 unit tasks per instance on a unit node => 1/2.
	if !rate.Throughput.Equal(rr(1, 2)) {
		t.Fatalf("rate = %v, want 1/2", rate.Throughput)
	}
	for k := range d.Ops {
		if !rate.Cons[f][k].IsZero() {
			t.Fatal("forwarder assigned compute")
		}
	}
}

func TestDAGAllocationCapGuard(t *testing.T) {
	// 12 tasks on 8 compute nodes = 8^12 allocations: must refuse.
	p := platform.Clique(rand.New(rand.NewSource(1)), 8, 3, 3)
	d := ChainDAG(12)
	if _, err := SolveDAGAllocation(p, d); err == nil {
		t.Fatal("expected enumeration-cap error")
	}
}

func TestDAGRateHeterogeneous(t *testing.T) {
	// Fork-join on Figure 1: just assert solvable + bounded by total
	// task-weighted capacity.
	p := platform.Figure1()
	d := ForkJoinDAG(2)
	rate, err := SolveDAGRateBound(p, d)
	if err != nil {
		t.Fatal(err)
	}
	totalOps := rat.Zero()
	for _, o := range d.Ops {
		totalOps = totalOps.Add(o)
	}
	cap := rat.Zero()
	for i := 0; i < p.NumNodes(); i++ {
		if p.CanCompute(i) {
			cap = cap.Add(p.Weight(i).Val.Inv())
		}
	}
	if rate.Throughput.Mul(totalOps).Cmp(cap) > 0 {
		t.Fatalf("rate %v exceeds capacity bound", rate.Throughput)
	}
}
