package schedule

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
	"repro/pkg/steady/sim/event"
)

// cardStar reconstructs E16's platform — four unit workers behind unit
// links, master w=1000 — under k cards per node and direction.
func cardStar(t *testing.T, k int) (*platform.Platform, *core.CardSolution, *Periodic) {
	t.Helper()
	ws := make([]platform.Weight, 4)
	cs := make([]rat.Rat, 4)
	for i := range ws {
		ws[i] = platform.WInt(1)
		cs[i] = rat.One()
	}
	p := platform.Star(platform.WInt(1000), ws, cs)
	sol, err := core.SolveMasterSlaveCards(p, 0, core.RoundRobinCards(p, core.UniformPorts(p, k)))
	if err != nil {
		t.Fatal(err)
	}
	per, err := ReconstructCards(sol)
	if err != nil {
		t.Fatal(err)
	}
	return p, sol, per
}

func TestReconstructCardsStar(t *testing.T) {
	p, sol, per := cardStar(t, 2)
	if !per.Throughput.Equal(sol.Throughput) {
		t.Fatalf("throughput changed: %v vs %v", per.Throughput, sol.Throughput)
	}
	// With two cards, some slot must carry two simultaneous transfers
	// from the master (which the single-port Check would reject).
	sawParallel := false
	for _, s := range per.Slots {
		fromMaster := 0
		for _, e := range s.Edges {
			if p.Edge(e).From == 0 {
				fromMaster++
			}
		}
		if fromMaster == 2 {
			sawParallel = true
		}
		if fromMaster > 2 {
			t.Fatalf("slot uses %d > 2 master cards", fromMaster)
		}
	}
	if !sawParallel {
		t.Fatal("no slot exploits the second card")
	}
}

// TestCardScheduleIsAnOrdinarySchedule: a card schedule remembers its
// wiring, so the one Periodic.Check — and everything that goes through
// it — serves it like any other. With two checkers, the event-core
// conversion and Grouped(m).Check() reached the single-port one and refused every
// k > 1 schedule ("slot 0 violates one-port"): the §5.1.2 schedule was
// the one schedule the event core could not run.
func TestCardScheduleIsAnOrdinarySchedule(t *testing.T) {
	for _, k := range []int{2, 4} {
		p, _, per := cardStar(t, k)
		spec := &event.PeriodicSpec{Platform: per.P, Commodities: per.Commodities}
		const periods = 12
		stats, err := event.RunPeriodic(spec, periods, event.PeriodicOptions{PerPeriod: true})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if stats.SteadyAfter < 0 || stats.SteadyAfter > int64(p.MaxDepthFrom(0)) {
			t.Fatalf("k=%d: steady after %d periods, want within depth %d", k, stats.SteadyAfter, p.MaxDepthFrom(0))
		}
		for pd := stats.SteadyAfter; pd < periods; pd++ {
			if stats.DonePerPeriod[pd].Cmp(per.OpsPerPeriod) != 0 {
				t.Fatalf("k=%d: period %d did %v tasks, want %v", k, pd, stats.DonePerPeriod[pd], per.OpsPerPeriod)
			}
		}
		if err := per.Grouped(3).Check(); err != nil {
			t.Fatalf("k=%d: grouped schedule refused: %v", k, err)
		}
	}
}

// TestCardScheduleCheckReadsTheWiring: the check is per card, not
// laxer. Two edges wired to one card cannot share a slot, and a k=2
// schedule judged under the single-port wiring is refused.
func TestCardScheduleCheckReadsTheWiring(t *testing.T) {
	p, sol, per := cardStar(t, 2)
	out := p.OutEdges(0)
	if sol.Assign.SendCard[out[0]] != sol.Assign.SendCard[out[2]] {
		t.Fatalf("round-robin wiring changed: edges %d and %d no longer share a card", out[0], out[2])
	}
	c := *per
	c.Slots = []Slot{{Dur: per.Slots[0].Dur, Edges: []int{out[0], out[2]}}}
	if err := c.Check(); err == nil || !strings.Contains(err.Error(), "port twice") {
		t.Fatalf("slot using one card twice: %v", err)
	}
	c = *per
	c.ports = onePort(p)
	if err := c.Check(); err == nil || !strings.Contains(err.Error(), "port twice") {
		t.Fatalf("k=2 schedule under the single-port wiring: %v", err)
	}
}

func TestReconstructCardsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 6; trial++ {
		p := platform.RandomConnected(rng, 4+rng.Intn(4), rng.Intn(6), 4, 4, 0.1)
		caps := core.UniformPorts(p, 1+rng.Intn(3))
		sol, err := core.SolveMasterSlaveCards(p, 0, core.RoundRobinCards(p, caps))
		if err != nil {
			t.Fatal(err)
		}
		per, err := ReconstructCards(sol)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, p)
		}
		if err := per.Check(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestReconstructCardsK1MatchesSinglePort(t *testing.T) {
	p := platform.Figure1()
	caps := core.UniformPorts(p, 1)
	sol, err := core.SolveMasterSlaveCards(p, 0, core.RoundRobinCards(p, caps))
	if err != nil {
		t.Fatal(err)
	}
	per, err := ReconstructCards(sol)
	if err != nil {
		t.Fatal(err)
	}
	// With one card per direction the card schedule is a valid
	// single-port schedule too.
	if err := per.Check(); err != nil {
		t.Fatalf("k=1 card schedule fails single-port check: %v", err)
	}
}
