package schedule

import (
	"math/big"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
	"repro/pkg/steady/sim/event"
)

// Failure injection for the schedule verifiers (the counterpart of
// core's tamper tests): Check must reject corrupted periods.

func clonePeriodic(per *Periodic) *Periodic {
	c := *per
	clone := func(ns []*big.Int) []*big.Int {
		if ns == nil {
			return nil
		}
		out := make([]*big.Int, len(ns))
		for i, n := range ns {
			out[i] = new(big.Int).Set(n)
		}
		return out
	}
	c.Commodities = make([]event.Commodity, len(per.Commodities))
	for k, com := range per.Commodities {
		com.EdgeCount, com.Consume, com.Quota = clone(com.EdgeCount), clone(com.Consume), new(big.Int).Set(com.Quota)
		c.Commodities[k] = com
	}
	c.OpsPerPeriod = new(big.Int).Set(per.OpsPerPeriod)
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
// verifier-parity table: the single-port and k=2 card schedules (task
// shape), the scatter schedule (per-target flows) and the tree-packing
// schedule (replicated trees) all go through the one Periodic.Check,
// which refuses every kind of tampering for the right reason. Rows
// with a shape apply to that shape's schedules only. (The card checker
// used to be a separate, weaker copy: it never compared throughput to
// the counts.)
func TestPeriodicCheckRejectsTampering(t *testing.T) {
	p := tamperPlatform()
	const master = 0
	schedules := []struct {
		name, shape string
		build       func() (*Periodic, error)
	}{
		{"single port", "tasks", func() (*Periodic, error) {
			ms, err := core.SolveMasterSlave(p, master)
			if err != nil {
				return nil, err
			}
			return Reconstruct(ms)
		}},
		{"cards k=2", "tasks", func() (*Periodic, error) {
			cs, err := core.SolveMasterSlaveCards(p, master, core.RoundRobinCards(p, core.UniformPorts(p, 2)))
			if err != nil {
				return nil, err
			}
			return ReconstructCards(cs)
		}},
		{"scatter", "flows", func() (*Periodic, error) {
			q := platform.Figure1()
			sc, err := core.SolveScatter(q, q.NodeByName("P1"), []int{q.NodeByName("P4"), q.NodeByName("P5")})
			if err != nil {
				return nil, err
			}
			return ReconstructScatter(sc)
		}},
		{"tree packing", "trees", func() (*Periodic, error) {
			q := platform.Figure2()
			pack, err := core.SolveTreePacking(q, q.NodeByName("P0"), platform.Figure2Targets(q))
			if err != nil {
				return nil, err
			}
			return ReconstructTreePacking(pack)
		}},
	}
	// fed returns a worker that computes and an edge that feeds it.
	fed := func(per *Periodic) (node, edge int) {
		tasks := per.Commodities[0]
		for e, n := range tasks.EdgeCount {
			if to := per.P.Edge(e).To; n.Sign() > 0 && tasks.Consume[to].Sign() > 0 {
				return to, e
			}
		}
		t.Fatal("no fed worker")
		return
	}
	// used returns the first edge the first commodity crosses.
	used := func(per *Periodic) int {
		for e, n := range per.Commodities[0].EdgeCount {
			if n.Sign() > 0 {
				return e
			}
		}
		t.Fatal("first commodity crosses no edge")
		return -1
	}
	bump := func(n *big.Int, d int64) { n.Add(n, big.NewInt(d)) }
	// instances moves tree 0 by d instances, on every edge it uses.
	instances := func(c *Periodic, d int64) {
		tree := c.Commodities[0]
		for _, n := range tree.EdgeCount {
			if n.Sign() > 0 {
				bump(n, d)
			}
		}
		bump(tree.Quota, d)
	}
	tampers := []struct {
		name, shape string
		mutate      func(*Periodic)
		want        string
	}{
		{"edge count +1", "tasks", func(c *Periodic) { _, e := fed(c); bump(c.Commodities[0].EdgeCount[e], 1) }, "conservation"},
		{"edge count -1", "tasks", func(c *Periodic) { _, e := fed(c); bump(c.Commodities[0].EdgeCount[e], -1) }, "conservation"},
		{"compute count +1", "tasks", func(c *Periodic) { i, _ := fed(c); bump(c.Commodities[0].Consume[i], 1) }, "conservation"},
		{"compute count -1", "tasks", func(c *Periodic) { i, _ := fed(c); bump(c.Commodities[0].Consume[i], -1) }, "conservation"},
		{"forwarder computes", "tasks", func(c *Periodic) { c.Commodities[0].Consume[p.NodeByName("F")] = big.NewInt(1) }, ""},
		{"task quota +1", "tasks", func(c *Periodic) { bump(c.Commodities[0].Quota, 1) }, "quota"},
		{"message count +1", "flows", func(c *Periodic) { bump(c.Commodities[0].EdgeCount[used(c)], 1) }, ""},
		{"message quota +1", "flows", func(c *Periodic) { bump(c.Commodities[0].Quota, 1) }, "quota"},
		{"instance count +1", "trees", func(c *Periodic) { instances(c, 1) }, "ops/period"},
		{"instance count -1", "trees", func(c *Periodic) { instances(c, -1) }, "ops/period"},
		{"tree edge off its quota", "trees", func(c *Periodic) { bump(c.Commodities[0].EdgeCount[used(c)], 1) }, "quota"},
		{"slot reuses a port", "", func(c *Periodic) {
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
		{"slot over its edge's time", "", func(c *Periodic) { c.Slots = append(c.Slots, c.Slots[0]) }, "slot time"},
		{"slots exceed T", "", func(c *Periodic) {
			// One slot per edge: every edge still gets its busy time,
			// but nothing overlaps any more.
			c.Slots = nil
			for e := range c.ports.send {
				if dur := c.busy(e); dur.Sign() > 0 {
					c.Slots = append(c.Slots, Slot{Dur: dur, Edges: []int{e}})
				}
			}
		}, "exceed period"},
		{"ops per period +5", "", func(c *Periodic) { bump(c.OpsPerPeriod, 5) }, "ops/period"},
		{"throughput doubled", "", func(c *Periodic) { c.Throughput = c.Throughput.Mul(rat.FromInt(2)) }, "throughput"},
	}
	for _, sc := range schedules {
		per, err := sc.build()
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		if err := per.Check(); err != nil {
			t.Fatalf("%s: untampered schedule refused: %v", sc.name, err)
		}
		for _, tc := range tampers {
			if tc.shape != "" && tc.shape != sc.shape {
				continue
			}
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
