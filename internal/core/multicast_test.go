package core

import (
	"math/rand"
	"testing"

	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

// TestFigure2MulticastBound reproduces §3.3/§4.3: on the Figure 2
// platform the max-operator LP reaches a throughput of exactly one
// message per time-unit.
func TestFigure2MulticastBound(t *testing.T) {
	p := platform.Figure2()
	src := p.NodeByName("P0")
	targets := platform.Figure2Targets(p)
	bound, err := SolveMulticastBound(p, src, targets)
	if err != nil {
		t.Fatal(err)
	}
	if !bound.Throughput.IsOne() {
		t.Fatalf("max-operator bound = %v, want exactly 1 (paper: 'reaches the throughput of one message per time-unit')", bound.Throughput)
	}
}

// TestFigure2SumLP reproduces the pessimistic sum formulation: with
// distinct-message accounting the source port is the bottleneck
// (every message leaves P0 twice at unit cost), so TP = 1/2.
func TestFigure2SumLP(t *testing.T) {
	p := platform.Figure2()
	src := p.NodeByName("P0")
	targets := platform.Figure2Targets(p)
	sum, err := SolveMulticastSum(p, src, targets)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Throughput.Equal(rr(1, 2)) {
		t.Fatalf("sum LP = %v, want 1/2", sum.Throughput)
	}
}

// TestFigure2TreePackingGap is the heart of the counterexample: the
// true optimal multicast throughput (exact tree packing) is strictly
// below the max-operator bound of 1, proving the bound unachievable —
// "reconstructing a schedule from the solution of the linear program
// is not possible" (§4.3).
func TestFigure2TreePackingGap(t *testing.T) {
	p := platform.Figure2()
	src := p.NodeByName("P0")
	targets := platform.Figure2Targets(p)

	pack, err := SolveTreePacking(p, src, targets)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Figure 2: enumerated %d minimal Steiner trees; optimal packing TP = %v = %.4f",
		pack.NumTrees, pack.Throughput, pack.Throughput.Float64())

	one := rat.One()
	if pack.Throughput.Cmp(one) >= 0 {
		t.Fatalf("tree packing %v >= 1: counterexample not reproduced", pack.Throughput)
	}
	// Sum LP is achievable, so packing must be at least 1/2.
	if pack.Throughput.Less(rr(1, 2)) {
		t.Fatalf("tree packing %v below the achievable sum-LP value 1/2", pack.Throughput)
	}
}

// TestFigure2TwoTreeConflict reconstructs Figure 3(d): serving both
// targets at rate 1 requires two different trees (odd/even messages),
// and those trees collide on the capacity-2 edge P3->P4.
func TestFigure2TwoTreeConflict(t *testing.T) {
	p := platform.Figure2()
	src := p.NodeByName("P0")
	p3, p4 := p.NodeByName("P3"), p.NodeByName("P4")
	e34 := p.FindEdge(p3, p4)

	// The two routes of §4.3. To P5: a-messages P0->P1->P5 and
	// b-messages P0->P2->P3->P4->P5. To P6: a-messages (route r1)
	// P0->P1->P3->P4->P6 and b-messages (route r2) P0->P2->P6.
	find := func(names ...string) []int {
		var es []int
		for i := 0; i+1 < len(names); i++ {
			e := p.FindEdge(p.NodeByName(names[i]), p.NodeByName(names[i+1]))
			if e < 0 {
				t.Fatalf("missing edge %s->%s", names[i], names[i+1])
			}
			es = append(es, e)
		}
		return es
	}
	treeA := append(find("P0", "P1", "P5"), find("P1", "P3", "P4", "P6")...) // odd messages
	treeB := append(find("P0", "P2", "P3", "P4", "P5"), find("P2", "P6")...) // even messages

	// Both are valid multicast trees of the enumeration.
	trees, err := EnumerateMulticastTrees(p, src, platform.Figure2Targets(p), nil)
	if err != nil {
		t.Fatal(err)
	}
	contains := func(es []int) bool {
		want := map[int]bool{}
		for _, e := range es {
			want[e] = true
		}
	outer:
		for _, tr := range trees {
			if len(tr) != len(es) {
				continue
			}
			for _, e := range tr {
				if !want[e] {
					continue outer
				}
			}
			return true
		}
		return false
	}
	if !contains(treeA) || !contains(treeB) {
		t.Fatal("the paper's two trees are not among the enumerated minimal trees")
	}

	// Both trees use P3->P4: one a-message and one b-message per
	// time-unit would need 2*c34 = 4 time-units of edge time per
	// 2 time-units — infeasible, exactly Figure 3(d)'s conflict.
	shared := TreeEdgeConflict(p, []MulticastTree{
		{Edges: treeA, Rate: rr(1, 2)},
		{Edges: treeB, Rate: rr(1, 2)},
	})
	found := false
	for _, e := range shared {
		if e == e34 {
			found = true
		}
	}
	if !found {
		t.Fatal("P3->P4 not shared between the two trees")
	}
	// Per-instance load on P3->P4 at rate 1/2 each: c34*(1/2+1/2) = 2
	// per time-unit > 1: the pair of trees alone is infeasible at
	// total rate 1.
	c34 := p.Edge(e34).C
	load := c34.Mul(rr(1, 2)).Add(c34.Mul(rr(1, 2)))
	if load.Cmp(rat.One()) <= 0 {
		t.Fatalf("expected overload on P3->P4, got %v", load)
	}
}

// TestFigure2MaxLPFlowsMatchFigure3 checks that the max-operator LP
// admits (as a feasible point) exactly the flows drawn in Figure 3:
// 1/2 per edge and per target on the two routes.
func TestFigure2MaxLPFlowsMatchFigure3(t *testing.T) {
	p := platform.Figure2()
	src := p.NodeByName("P0")
	targets := platform.Figure2Targets(p)

	half := rr(1, 2)
	flow := make([][]rat.Rat, p.NumEdges()) // [edge][targetIdx]
	s := make([]rat.Rat, p.NumEdges())
	for e := range flow {
		flow[e] = make([]rat.Rat, 2)
	}
	set := func(a, b string, k int) {
		e := p.FindEdge(p.NodeByName(a), p.NodeByName(b))
		if e < 0 {
			t.Fatalf("missing edge %s->%s", a, b)
		}
		flow[e][k] = half
	}
	// Figure 3(a): flows for target P5 (k=0).
	set("P0", "P1", 0)
	set("P1", "P5", 0)
	set("P0", "P2", 0)
	set("P2", "P3", 0)
	set("P3", "P4", 0)
	set("P4", "P5", 0)
	// Figure 3(b): flows for target P6 (k=1).
	set("P0", "P1", 1)
	set("P1", "P3", 1)
	set("P3", "P4", 1)
	set("P4", "P6", 1)
	set("P0", "P2", 1)
	set("P2", "P6", 1)
	// s_e = max_k flow*c.
	for e := 0; e < p.NumEdges(); e++ {
		c := p.Edge(e).C
		for k := 0; k < 2; k++ {
			s[e] = rat.Max(s[e], flow[e][k].Mul(c))
		}
	}
	cand := &Scatter{
		P: p, Source: src, Targets: targets, Model: SendAndReceive,
		Throughput: rat.One(), S: s, Send: flow,
	}
	if err := cand.check(true); err != nil {
		t.Fatalf("Figure 3 flows rejected by max-LP feasibility check: %v", err)
	}
}

func TestEnumerateTreesSmall(t *testing.T) {
	// Diamond: src -> {a, b} -> dst; two minimal trees to reach dst.
	p := platform.New()
	s := p.AddNode("S", platform.WInt(1))
	a := p.AddNode("A", platform.WInt(1))
	b := p.AddNode("B", platform.WInt(1))
	d := p.AddNode("D", platform.WInt(1))
	p.AddEdge(s, a, ri(1))
	p.AddEdge(s, b, ri(1))
	p.AddEdge(a, d, ri(1))
	p.AddEdge(b, d, ri(1))
	trees, err := EnumerateMulticastTrees(p, s, []int{d}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 2 {
		t.Fatalf("got %d trees, want 2", len(trees))
	}
	for _, tr := range trees {
		if len(tr) != 2 {
			t.Fatalf("tree %v not minimal", tr)
		}
	}
}

func TestEnumerateTreesPrunesNonTargetLeaves(t *testing.T) {
	// Extra dead-end node X must never appear in a minimal tree.
	p := platform.New()
	s := p.AddNode("S", platform.WInt(1))
	tgt := p.AddNode("T", platform.WInt(1))
	x := p.AddNode("X", platform.WInt(1))
	p.AddEdge(s, tgt, ri(1))
	ex := p.AddEdge(s, x, ri(1))
	trees, err := EnumerateMulticastTrees(p, s, []int{tgt}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 1 {
		t.Fatalf("got %d trees, want 1", len(trees))
	}
	for _, e := range trees[0] {
		if e == ex {
			t.Fatal("pruned edge present")
		}
	}
}

func TestTreePackingSingleChain(t *testing.T) {
	// src -> t: throughput limited by the only edge: 1/c.
	p := platform.New()
	s := p.AddNode("S", platform.WInt(1))
	d := p.AddNode("T", platform.WInt(1))
	p.AddEdge(s, d, ri(4))
	pack, err := SolveTreePacking(p, s, []int{d})
	if err != nil {
		t.Fatal(err)
	}
	if !pack.Throughput.Equal(rr(1, 4)) {
		t.Fatalf("packing = %v, want 1/4", pack.Throughput)
	}
}

func TestBestSingleTreeLowerBoundsPacking(t *testing.T) {
	p := platform.Figure2()
	src := p.NodeByName("P0")
	targets := platform.Figure2Targets(p)
	_, single, err := BestSingleTree(p, src, targets)
	if err != nil {
		t.Fatal(err)
	}
	pack, err := SolveTreePacking(p, src, targets)
	if err != nil {
		t.Fatal(err)
	}
	if pack.Throughput.Less(single) {
		t.Fatalf("packing %v below single tree %v", pack.Throughput, single)
	}
	t.Logf("Figure 2 best single tree TP = %v, packing = %v", single, pack.Throughput)
}

// TestOrderingSumLEPackingLEBound asserts the fundamental sandwich of
// §3.3 on random platforms: sum-LP <= tree packing <= max-LP bound.
func TestOrderingSumLEPackingLEBound(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	trials := 0
	for attempt := 0; attempt < 40 && trials < 10; attempt++ {
		p := platform.RandomConnected(rng, 5+rng.Intn(2), rng.Intn(4), 3, 3, 0)
		if p.NumEdges() > 16 { // keep the enumeration tiny
			continue
		}
		src := 0
		var targets []int
		for i := 1; i < p.NumNodes() && len(targets) < 2; i++ {
			targets = append(targets, i)
		}
		sum, err := SolveMulticastSum(p, src, targets)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := SolveMulticastBound(p, src, targets)
		if err != nil {
			t.Fatal(err)
		}
		pack, err := SolveTreePacking(p, src, targets)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Throughput.Cmp(pack.Throughput) > 0 {
			t.Fatalf("sum %v > packing %v\n%s", sum.Throughput, pack.Throughput, p)
		}
		if pack.Throughput.Cmp(bound.Throughput) > 0 {
			t.Fatalf("packing %v > bound %v\n%s", pack.Throughput, bound.Throughput, p)
		}
		trials++
	}
	if trials < 5 {
		t.Fatalf("only %d usable random platforms", trials)
	}
}

// TestBroadcastBoundAchievableOnFigure2 is E4: for broadcast (all
// nodes are targets) the max-operator bound is achievable [5]; on
// Figure 2 the tree packing must meet it exactly.
func TestBroadcastBoundAchievableOnFigure2(t *testing.T) {
	p := platform.Figure2()
	src := p.NodeByName("P0")
	bound, err := SolveBroadcastBound(p, src)
	if err != nil {
		t.Fatal(err)
	}
	var targets []int
	for i := 0; i < p.NumNodes(); i++ {
		if i != src {
			targets = append(targets, i)
		}
	}
	pack, err := SolveTreePacking(p, src, targets)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Figure 2 broadcast: bound = %v, packing = %v", bound.Throughput, pack.Throughput)
	if !pack.Throughput.Equal(bound.Throughput) {
		t.Fatalf("broadcast bound %v not met by packing %v (paper claims achievability)",
			bound.Throughput, pack.Throughput)
	}
}

func TestMulticastErrors(t *testing.T) {
	p := platform.Figure2()
	src := p.NodeByName("P0")
	if _, err := SolveMulticastBound(p, src, []int{src}); err == nil {
		t.Fatal("expected source-as-target error")
	}
	if _, err := SolveMulticastBound(p, src, nil); err == nil {
		t.Fatal("expected no-targets error")
	}
	if _, err := SolveMulticastBound(p, src, []int{99}); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, err := SolveMulticastBound(p, 99, []int{1}); err == nil {
		t.Fatal("expected bad-source error")
	}
	tg := platform.Figure2Targets(p)
	if _, err := SolveMulticastBound(p, src, []int{tg[0], tg[0]}); err == nil {
		t.Fatal("expected duplicate-target error")
	}
	// Unreachable target makes the LP force TP = 0.
	q := platform.New()
	a := q.AddNode("A", platform.WInt(1))
	b := q.AddNode("B", platform.WInt(1))
	c := q.AddNode("C", platform.WInt(1))
	q.AddEdge(a, b, ri(1))
	sol, err := SolveMulticastBound(q, a, []int{c})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Throughput.IsZero() {
		t.Fatalf("unreachable target should force TP=0, got %v", sol.Throughput)
	}
}

func TestPopcountHelper(t *testing.T) {
	if popcount(0b1011) != 3 {
		t.Fatal("popcount wrong")
	}
}
