package core

import (
	"strings"
	"testing"

	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

// Failure injection: every independent verifier must reject tampered
// solutions. These tests pin the checkers' sensitivity — without
// them, a checker that silently accepts anything would still make the
// solver tests pass.

// tamperPlatform is Figure 1 plus a forwarder-only node F hung off the
// master, so the "forwarder computes" cell has a node to tamper with.
func tamperPlatform() *platform.Platform {
	p := platform.Figure1()
	p.AddBoth(p.NodeByName("P1"), p.AddNode("F", platform.WInf()), rat.One())
	return p
}

// TestCheckRejectsTamperedMasterSlave is the verifier-parity table:
// every variant of the task-flow LP, under its own checker, refuses
// every kind of tampering — and refuses it for the right reason. The
// multiport and card checkers used to skip half of these (a doubled
// throughput passed both).
func TestCheckRejectsTamperedMasterSlave(t *testing.T) {
	p := tamperPlatform()
	const master = 0
	caps := UniformPorts(p, 2)
	assign := RoundRobinCards(p, caps)
	variants := []struct {
		name     string
		solve    func() (*MasterSlave, error)
		check    func(*MasterSlave) error
		overload string // what the variant's port check says
	}{
		{"send-and-receive",
			func() (*MasterSlave, error) { return SolveMasterSlavePort(p, master, SendAndReceive) },
			(*MasterSlave).Check, "sends"},
		{"send-or-receive",
			func() (*MasterSlave, error) { return SolveMasterSlavePort(p, master, SendOrReceive) },
			(*MasterSlave).Check, "uses port"},
		{"multiport k=2",
			func() (*MasterSlave, error) { return SolveMasterSlaveMultiport(p, master, caps) },
			func(ms *MasterSlave) error { return CheckMultiport(ms, caps) }, "send cards"},
		{"cards k=2",
			func() (*MasterSlave, error) {
				cs, err := SolveMasterSlaveCards(p, master, assign)
				if err != nil {
					return nil, err
				}
				return cs.MasterSlave, nil
			},
			func(ms *MasterSlave) error { return (&CardSolution{MasterSlave: ms, Assign: assign}).CheckCards() },
			"overloaded"},
	}
	tampers := []struct {
		name   string
		mutate func(*MasterSlave)
		want   string // "" = the variant's overload message
	}{
		{"alpha > 1", func(c *MasterSlave) { c.Alpha[master] = rat.FromInt(2) }, "alpha[P1]"},
		{"forwarder computes", func(c *MasterSlave) { c.Alpha[p.NodeByName("F")] = rat.New(1, 2) }, "forwarder F computes"},
		{"s < 0", func(c *MasterSlave) { c.S[0] = rat.FromInt(-1) }, "s[0]"},
		{"s > 1", func(c *MasterSlave) { c.S[0] = rat.FromInt(2) }, "s[0]"},
		{"master receives", func(c *MasterSlave) {
			// Alone on the network, so no port is anywhere near full.
			for e := range c.S {
				c.S[e] = rat.Zero()
			}
			c.S[p.InEdges(master)[0]] = rat.New(1, 7)
		}, "master receives"},
		{"conservation broken", func(c *MasterSlave) {
			// Halve one edge out of the master: its far end now
			// consumes more than it gets.
			for _, e := range p.OutEdges(master) {
				if c.S[e].Sign() > 0 {
					c.S[e] = c.S[e].Div(rat.FromInt(2))
					return
				}
			}
			t.Fatal("master sends nothing")
		}, "conservation violated"},
		{"throughput doubled", func(c *MasterSlave) { c.Throughput = c.Throughput.Mul(rat.FromInt(2)) }, "throughput"},
		{"port overloaded", func(c *MasterSlave) {
			// P2 has three out-edges: all busy full time is more than
			// one port, two aggregated cards, or P2's first card.
			for _, e := range p.OutEdges(p.NodeByName("P2")) {
				c.S[e] = rat.One()
			}
		}, ""},
	}
	for _, v := range variants {
		ms, err := v.solve()
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if err := v.check(ms); err != nil {
			t.Fatalf("%s: untampered solution refused: %v", v.name, err)
		}
		for _, tc := range tampers {
			c := *ms
			c.Alpha = append([]rat.Rat(nil), ms.Alpha...)
			c.S = append([]rat.Rat(nil), ms.S...)
			tc.mutate(&c)
			want := tc.want
			if want == "" {
				want = v.overload
			}
			if err := v.check(&c); err == nil {
				t.Errorf("%s / %s: tampered solution accepted", v.name, tc.name)
			} else if !strings.Contains(err.Error(), want) {
				t.Errorf("%s / %s: refused for another reason: %v (want %q)", v.name, tc.name, err, want)
			}
		}
	}
}

func TestCheckRejectsTamperedScatter(t *testing.T) {
	p := platform.Figure1()
	src := p.NodeByName("P1")
	targets := []int{p.NodeByName("P4"), p.NodeByName("P6")}
	sc, err := SolveScatter(p, src, targets)
	if err != nil {
		t.Fatal(err)
	}
	clone := func() *Scatter {
		c := *sc
		c.S = append([]rat.Rat(nil), sc.S...)
		c.Send = make([][]rat.Rat, len(sc.Send))
		for e := range sc.Send {
			c.Send[e] = append([]rat.Rat(nil), sc.Send[e]...)
		}
		return &c
	}
	c := clone()
	c.Throughput = c.Throughput.Add(rat.One())
	if err := c.Check(); err == nil {
		t.Error("inflated scatter throughput accepted")
	}
	c = clone()
	for e := range c.Send {
		if c.Send[e][0].Sign() > 0 {
			c.Send[e][0] = c.Send[e][0].Mul(rat.FromInt(3))
			break
		}
	}
	if err := c.Check(); err == nil {
		t.Error("broken edge coupling accepted")
	}
}

func TestCheckRejectsTamperedAllToAll(t *testing.T) {
	ring := platform.New()
	for i := 0; i < 3; i++ {
		ring.AddNode(string(rune('A'+i)), platform.WInt(1))
	}
	ring.AddBoth(0, 1, rat.One())
	ring.AddBoth(1, 2, rat.One())
	ring.AddBoth(0, 2, rat.One())
	a2a, err := SolveAllToAll(ring, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	a2a.Throughput = a2a.Throughput.Mul(rat.FromInt(2))
	if err := a2a.Check(); err == nil {
		t.Error("inflated all-to-all throughput accepted")
	}
}
