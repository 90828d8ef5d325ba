package core

import (
	"math/rand"
	"testing"

	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

// fanStar builds a master with k unit workers over unit links — the
// platform where extra network cards pay off linearly.
func fanStar(k int) *platform.Platform {
	ws := make([]platform.Weight, k)
	cs := make([]rat.Rat, k)
	for i := range ws {
		ws[i] = platform.WInt(1)
		cs[i] = rat.One()
	}
	return platform.Star(platform.WInt(1000), ws, cs)
}

func TestMultiportScalesWithCards(t *testing.T) {
	p := fanStar(4)
	// One card: the master's port feeds 1 task/unit in total.
	ms1, err := SolveMasterSlaveMultiport(p, 0, UniformPorts(p, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Four cards: all four workers fully fed.
	ms4, err := SolveMasterSlaveMultiport(p, 0, UniformPorts(p, 4))
	if err != nil {
		t.Fatal(err)
	}
	base := rat.New(1, 1000)
	if !ms1.Throughput.Equal(base.Add(rat.One())) {
		t.Fatalf("1 card: %v, want 1 + 1/1000", ms1.Throughput)
	}
	if !ms4.Throughput.Equal(base.Add(rat.FromInt(4))) {
		t.Fatalf("4 cards: %v, want 4 + 1/1000", ms4.Throughput)
	}
}

func TestMultiportMatchesSinglePortAtK1(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 6; trial++ {
		p := platform.RandomConnected(rng, 4+rng.Intn(4), rng.Intn(5), 4, 4, 0.1)
		a, err := SolveMasterSlave(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := SolveMasterSlaveMultiport(p, 0, UniformPorts(p, 1))
		if err != nil {
			t.Fatal(err)
		}
		if !a.Throughput.Equal(b.Throughput) {
			t.Fatalf("trial %d: k=1 multiport %v != single port %v", trial, b.Throughput, a.Throughput)
		}
	}
}

func TestMultiportMonotoneInCards(t *testing.T) {
	p := platform.Figure1()
	prev := rat.Zero()
	for k := 1; k <= 3; k++ {
		ms, err := SolveMasterSlaveMultiport(p, 0, UniformPorts(p, k))
		if err != nil {
			t.Fatal(err)
		}
		if ms.Throughput.Less(prev) {
			t.Fatalf("k=%d decreased throughput", k)
		}
		prev = ms.Throughput
	}
}

func TestMultiportEdgeCapacityStillBinds(t *testing.T) {
	// One worker, many cards: the single link's s_e <= 1 still caps
	// the rate at 1/c regardless of card count.
	p := platform.Star(platform.WInt(1000),
		[]platform.Weight{platform.WInt(1)}, []rat.Rat{rat.FromInt(2)})
	ms, err := SolveMasterSlaveMultiport(p, 0, UniformPorts(p, 8))
	if err != nil {
		t.Fatal(err)
	}
	want := rat.New(1, 1000).Add(rat.New(1, 2))
	if !ms.Throughput.Equal(want) {
		t.Fatalf("throughput %v, want %v", ms.Throughput, want)
	}
}

func TestPortCapsValidate(t *testing.T) {
	p := fanStar(2)
	bad := PortCaps{Send: []int{1}, Recv: []int{1}}
	if err := bad.Validate(p); err == nil {
		t.Fatal("expected size error")
	}
	zero := UniformPorts(p, 1)
	zero.Send[0] = 0
	if err := zero.Validate(p); err == nil {
		t.Fatal("expected zero-card error")
	}
}

func TestCardsFixedWiring(t *testing.T) {
	p := fanStar(4)
	caps := UniformPorts(p, 2)
	assign := RoundRobinCards(p, caps)
	cs, err := SolveMasterSlaveCards(p, 0, assign)
	if err != nil {
		t.Fatal(err)
	}
	// Two cards at the master, workers round-robined 2 per card:
	// each card feeds 2 unit workers over unit links -> 1 task/unit
	// per card, 2 total.
	want := rat.New(1, 1000).Add(rat.FromInt(2))
	if !cs.Throughput.Equal(want) {
		t.Fatalf("throughput %v, want %v", cs.Throughput, want)
	}
}

func TestCardsNeverBeatAggregatedBound(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 6; trial++ {
		p := platform.RandomConnected(rng, 4+rng.Intn(4), rng.Intn(6), 4, 4, 0.1)
		k := 1 + rng.Intn(3)
		caps := UniformPorts(p, k)
		agg, err := SolveMasterSlaveMultiport(p, 0, caps)
		if err != nil {
			t.Fatal(err)
		}
		cards, err := SolveMasterSlaveCards(p, 0, RoundRobinCards(p, caps))
		if err != nil {
			t.Fatal(err)
		}
		if agg.Throughput.Less(cards.Throughput) {
			t.Fatalf("trial %d: fixed wiring %v beats aggregated relaxation %v",
				trial, cards.Throughput, agg.Throughput)
		}
	}
}

func TestCardAssignValidate(t *testing.T) {
	p := fanStar(2)
	caps := UniformPorts(p, 1)
	a := RoundRobinCards(p, caps)
	if err := a.Validate(p); err != nil {
		t.Fatal(err)
	}
	a.SendCard[0] = 5
	if err := a.Validate(p); err == nil {
		t.Fatal("expected invalid-card error")
	}
	b := CardAssign{Caps: caps}
	if err := b.Validate(p); err == nil {
		t.Fatal("expected coverage error")
	}
}

// TestMultiportKeepsEdgeBoundRows: whether s_e <= 1 reaches the
// simplex as a row is decided by the port rows the model carries, not by
// its builder. With one card per node the aggregated rows are the
// one-port rows, Σ s <= 1, and imply every edge bound; with two they
// read Σ s <= 2 and imply none. Seen from outside the lp package: an
// optimal basis lists a column per row of the form, so at n=48 it has NumCons + NumVars of them under k=2 —
// every bound a row, alpha_i <= 1 and s_e <= 1 alike — and NumCons plus
// one per alpha under k=1.
func TestMultiportKeepsEdgeBoundRows(t *testing.T) {
	p := platform.RandomConnected(rand.New(rand.NewSource(48)), 48, 48, 5, 5, 0.15)
	for k, edgeRows := range map[int]bool{1: false, 2: true} {
		mm, err := buildMasterSlaveModel(p, 0, UniformPorts(p, k).rows, nil)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := mm.m.Solve()
		if err != nil {
			t.Fatal(err)
		}
		want := mm.m.NumCons() + mm.m.NumVars()
		if !edgeRows {
			want -= len(mm.sVar)
		}
		if got := len(lpBasis(sol)); got != want {
			t.Fatalf("k=%d: the form has %d rows, want %d (%d constraints, %d alpha, %d s)",
				k, got, want, mm.m.NumCons(), mm.m.NumVars()-len(mm.sVar), len(mm.sVar))
		}
	}
}
