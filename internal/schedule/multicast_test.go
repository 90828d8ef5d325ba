package schedule

import (
	"math/big"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

func TestReconstructTreePackingFigure2Multicast(t *testing.T) {
	p := platform.Figure2()
	src := p.NodeByName("P0")
	targets := platform.Figure2Targets(p)
	pack, err := core.SolveTreePacking(p, src, targets)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := ReconstructTreePacking(pack)
	if err != nil {
		t.Fatal(err)
	}
	if err := mp.Check(); err != nil {
		t.Fatal(err)
	}
	// The schedule realizes the true optimum 3/4: a constructive
	// witness that 3/4 is achievable while the LP bound 1 is not.
	if !mp.Throughput.Equal(rat.New(3, 4)) {
		t.Fatalf("throughput %v, want 3/4", mp.Throughput)
	}
	T := rat.FromBig(new(big.Rat).SetInt(mp.Period))
	ops := rat.FromBig(new(big.Rat).SetInt(mp.OpsPerPeriod))
	if !ops.Equal(mp.Throughput.Mul(T)) {
		t.Fatalf("ops/period %v != T*TP", ops)
	}
	t.Logf("Figure 2 multicast schedule: %v", mp)
}

func TestReconstructTreePackingBroadcastMeetsBound(t *testing.T) {
	// Constructive §4.3 achievability: the broadcast schedule built
	// from the packing has exactly the max-operator LP throughput.
	p := platform.Figure2()
	src := p.NodeByName("P0")
	bound, err := core.SolveBroadcastBound(p, src)
	if err != nil {
		t.Fatal(err)
	}
	var targets []int
	for i := 0; i < p.NumNodes(); i++ {
		if i != src {
			targets = append(targets, i)
		}
	}
	pack, err := core.SolveTreePacking(p, src, targets)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := ReconstructTreePacking(pack)
	if err != nil {
		t.Fatal(err)
	}
	if !mp.Throughput.Equal(bound.Throughput) {
		t.Fatalf("broadcast schedule %v != LP bound %v", mp.Throughput, bound.Throughput)
	}
}

func TestTreePackingScheduleRejectsBrokenTrees(t *testing.T) {
	p := platform.Figure2()
	src := p.NodeByName("P0")
	targets := platform.Figure2Targets(p)
	pack, err := core.SolveTreePacking(p, src, targets)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := ReconstructTreePacking(pack)
	if err != nil {
		t.Fatal(err)
	}
	// Break a tree: drop its first edge; Check must notice the
	// target is no longer reached.
	tree := mp.Commodities[0].EdgeCount
	for e := range tree {
		if tree[e].Sign() > 0 {
			tree[e] = new(big.Int)
			break
		}
	}
	if err := mp.Check(); err == nil || !strings.Contains(err.Error(), "does not reach") {
		t.Fatalf("expected unreachable-target error, got %v", err)
	}
}
