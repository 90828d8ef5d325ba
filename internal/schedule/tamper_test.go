package schedule

import (
	"math/big"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

// Failure injection for the schedule verifiers (the counterpart of
// core's tamper tests): Check must reject corrupted periods.

func clonePeriodic(per *Periodic) *Periodic {
	c := *per
	c.EdgeTasks = make([]*big.Int, len(per.EdgeTasks))
	for i, n := range per.EdgeTasks {
		c.EdgeTasks[i] = new(big.Int).Set(n)
	}
	c.ComputeTasks = make([]*big.Int, len(per.ComputeTasks))
	for i, n := range per.ComputeTasks {
		c.ComputeTasks[i] = new(big.Int).Set(n)
	}
	c.TasksPerPeriod = new(big.Int).Set(per.TasksPerPeriod)
	c.Slots = append([]Slot(nil), per.Slots...)
	return &c
}

// tamperPlatform is Figure 1 plus a forwarder-only node F hung off the
// master, so the "forwarder computes" row has a node to tamper with.
func tamperPlatform() *platform.Platform {
	p := platform.Figure1()
	p.AddBoth(p.NodeByName("P1"), p.AddNode("F", platform.WInf()), rat.One())
	return p
}

// TestPeriodicCheckRejectsTampering is the schedule half of the
// verifier-parity table: the single-port schedule and the k=2 card
// schedule go through the same Periodic.Check, which refuses every
// kind of tampering for the right reason. (The card checker used to
// be a separate, weaker copy: it never compared throughput to the
// counts.)
func TestPeriodicCheckRejectsTampering(t *testing.T) {
	p := tamperPlatform()
	const master = 0
	schedules := []struct {
		name  string
		build func() (*Periodic, error)
	}{
		{"single port", func() (*Periodic, error) {
			ms, err := core.SolveMasterSlave(p, master)
			if err != nil {
				return nil, err
			}
			return Reconstruct(ms)
		}},
		{"cards k=2", func() (*Periodic, error) {
			cs, err := core.SolveMasterSlaveCards(p, master, core.RoundRobinCards(p, core.UniformPorts(p, 2)))
			if err != nil {
				return nil, err
			}
			return ReconstructCards(cs)
		}},
	}
	// fed returns a worker that computes and an edge that feeds it.
	fed := func(per *Periodic) (node, edge int) {
		for e, n := range per.EdgeTasks {
			if to := p.Edge(e).To; n.Sign() > 0 && per.ComputeTasks[to].Sign() > 0 {
				return to, e
			}
		}
		t.Fatal("no fed worker")
		return
	}
	bump := func(n *big.Int, d int64) { n.Add(n, big.NewInt(d)) }
	tampers := []struct {
		name   string
		mutate func(*Periodic)
		want   string
	}{
		{"edge count +1", func(c *Periodic) { _, e := fed(c); bump(c.EdgeTasks[e], 1) }, "conservation"},
		{"edge count -1", func(c *Periodic) { _, e := fed(c); bump(c.EdgeTasks[e], -1) }, "conservation"},
		{"compute count +1", func(c *Periodic) { i, _ := fed(c); bump(c.ComputeTasks[i], 1) }, "conservation"},
		{"compute count -1", func(c *Periodic) { i, _ := fed(c); bump(c.ComputeTasks[i], -1) }, "conservation"},
		{"forwarder computes", func(c *Periodic) { c.ComputeTasks[p.NodeByName("F")] = big.NewInt(1) }, ""},
		{"slot reuses a port", func(c *Periodic) {
			// Two edges wired to the same send port, side by side.
			for e1 := range c.ports.send {
				for e2 := e1 + 1; e2 < len(c.ports.send); e2++ {
					if c.ports.send[e1] == c.ports.send[e2] {
						c.Slots = []Slot{{Dur: rat.One(), Edges: []int{e1, e2}}}
						return
					}
				}
			}
			t.Fatal("no two edges share a send port")
		}, "port twice"},
		{"slot time != n_e*c_e", func(c *Periodic) { c.Slots = append(c.Slots, c.Slots[0]) }, "slot time"},
		{"slots exceed T", func(c *Periodic) {
			// One slot per edge: every edge still gets its n_e*c_e,
			// but nothing overlaps any more.
			c.Slots = nil
			for e, n := range c.EdgeTasks {
				if n.Sign() > 0 {
					dur := rat.FromBig(new(big.Rat).SetInt(n)).Mul(p.Edge(e).C)
					c.Slots = append(c.Slots, Slot{Dur: dur, Edges: []int{e}})
				}
			}
		}, "exceed period"},
		{"tasks per period +5", func(c *Periodic) { bump(c.TasksPerPeriod, 5) }, "throughput"},
		{"throughput doubled", func(c *Periodic) { c.Throughput = c.Throughput.Mul(rat.FromInt(2)) }, "throughput"},
	}
	for _, sc := range schedules {
		per, err := sc.build()
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		for _, tc := range tampers {
			c := clonePeriodic(per)
			tc.mutate(c)
			if err := c.Check(); err == nil {
				t.Errorf("%s / %s: tampered schedule accepted", sc.name, tc.name)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s / %s: refused for another reason: %v (want %q)", sc.name, tc.name, err, tc.want)
			}
		}
	}
}

func TestScatterPeriodicCheckRejectsTampering(t *testing.T) {
	p := platform.Figure1()
	src := p.NodeByName("P1")
	targets := []int{p.NodeByName("P4"), p.NodeByName("P5")}
	sc, err := core.SolveScatter(p, src, targets)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := ReconstructScatter(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Inflate a message count: conservation or delivery must fire.
	for e := range sp.Msgs {
		if sp.Msgs[e][0].Sign() > 0 {
			sp.Msgs[e][0].Add(sp.Msgs[e][0], big.NewInt(1))
			break
		}
	}
	if err := sp.Check(); err == nil {
		t.Error("tampered scatter schedule accepted")
	}
}

// TestReconstructRefusesInvalidSolution: both reconstructions verify
// the solution they are handed before building on it. A card solution
// with its throughput doubled used to come back from ReconstructCards
// as a schedule claiming twice what its own counts give.
func TestReconstructRefusesInvalidSolution(t *testing.T) {
	p := platform.Figure1()
	ms, err := core.SolveMasterSlave(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := *ms
	bad.Throughput = bad.Throughput.Mul(rat.FromInt(3))
	if _, err := Reconstruct(&bad); err == nil {
		t.Fatal("Reconstruct accepted an invalid solution")
	}

	cs, err := core.SolveMasterSlaveCards(p, 0, core.RoundRobinCards(p, core.UniformPorts(p, 2)))
	if err != nil {
		t.Fatal(err)
	}
	badMS := *cs.MasterSlave
	badMS.Throughput = badMS.Throughput.Mul(rat.FromInt(2))
	if _, err := ReconstructCards(&core.CardSolution{MasterSlave: &badMS, Assign: cs.Assign}); err == nil {
		t.Fatal("ReconstructCards accepted an invalid solution")
	}
}
