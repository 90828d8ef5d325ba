package steady

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

// The metamorphic suite checks the *models*, where the duality
// certificate (lp.Model.CheckOptimal, asserted on every LP builder by
// internal/core's TestExactFloatParityAllSolvers and on every problem
// registered here by its TestFacadeResultsAreCertifiedOptima) checks the
// *solver*: a wrong LP solved to a proven optimum is still wrong, and
// nothing but a relation between two solves can say so. Every relation
// below holds for the steady-state problem itself, whatever LP encodes
// it; the table is builtins, so a problem is covered by being listed.

// instance is a platform with the root and targets every built-in
// problem is posed on.
type instance struct {
	name    string
	p       *platform.Platform
	root    string
	targets []string
	// strong: every node reaches every other, so no problem may fail.
	strong bool
}

func metamorphicInstances() []instance {
	f1, f2 := platform.Figure1(), platform.Figure2()
	out := []instance{
		{"figure1", f1, "P1", []string{"P4", "P6"}, true},
		// A DAG out of P0: reduce to P0 and all-to-all have no route.
		{"figure2", f2, "P0", []string{"P5", "P6"}, false},
	}
	for seed := int64(100); seed < 106; seed++ { // 104: the empty-hint platform
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(4)
		p := platform.RandomConnected(rng, n, n, 5, 5, 0.15)
		out = append(out, instance{fmt.Sprintf("random-%d", seed), p, p.Name(0), []string{p.Name(1), p.Name(2), p.Name(3)}, true})
	}
	return out
}

// solve poses b on p (an image of in.p that keeps its node names)
// through the path a client takes: spec by name, factory, Solve.
func (in instance) solve(b *builtinProblem, model PortModel, p *platform.Platform) (*Result, error) {
	spec := Spec{Problem: b.Problem, Root: in.root, Model: model}
	if b.NeedsTargets {
		spec.Targets = in.targets
	}
	s, err := b.factory(spec)
	if err != nil {
		return nil, err
	}
	return s.Solve(context.Background(), p)
}

// rebuilt returns p with nodes and edges declared in a random order
// (names, weights and costs kept; with reverse, every edge flipped):
// the same platform to the paper, another variable and row order — and
// so another pivot walk — to the LP.
func rebuilt(p *platform.Platform, rng *rand.Rand, reverse bool) *platform.Platform {
	q := platform.New()
	id := make([]int, p.NumNodes())
	for _, i := range rng.Perm(p.NumNodes()) {
		id[i] = q.AddNode(p.Name(i), p.Weight(i))
	}
	for _, e := range rng.Perm(p.NumEdges()) {
		ed := p.Edge(e)
		if reverse {
			ed.From, ed.To = ed.To, ed.From
		}
		q.AddEdge(id[ed.From], id[ed.To], ed.C)
	}
	return q
}

// recost returns p with every edge cost mapped through c and every
// finite node weight through w.
func recost(p *platform.Platform, c func(e int, c rat.Rat) rat.Rat, w func(rat.Rat) rat.Rat) *platform.Platform {
	q := platform.New()
	for i := 0; i < p.NumNodes(); i++ {
		wt := p.Weight(i)
		if !wt.Inf {
			wt = platform.W(w(wt.Val))
		}
		q.AddNode(p.Name(i), wt)
	}
	for e, ed := range p.Edges() {
		q.AddEdge(ed.From, ed.To, c(e, ed.C))
	}
	return q
}

func keep(x rat.Rat) rat.Rat { return x }

// cutOff returns p without the edges into node i: every route to i
// deleted, names and indices kept.
func cutOff(p *platform.Platform, i int) *platform.Platform {
	q := platform.New()
	for j := 0; j < p.NumNodes(); j++ {
		q.AddNode(p.Name(j), p.Weight(j))
	}
	for _, ed := range p.Edges() {
		if ed.To != i {
			q.AddEdge(ed.From, ed.To, ed.C)
		}
	}
	return q
}

func TestMetamorphic(t *testing.T) {
	k := rat.New(3, 2)
	for _, in := range metamorphicInstances() {
		rng := rand.New(rand.NewSource(int64(len(in.name)) + int64(in.p.NumEdges())))
		p := in.p
		relabelled := rebuilt(p, rng, false)
		scaled := recost(p, func(_ int, c rat.Rat) rat.Rat { return c.Mul(k) }, func(w rat.Rat) rat.Rat { return w.Mul(k) })
		fast := rng.Intn(p.NumEdges())
		faster := recost(p, func(e int, c rat.Rat) rat.Rat {
			if e == fast {
				return c.Div(rat.FromInt(2))
			}
			return c
		}, keep)
		wider := p.Clone()
		for {
			if u, v := rng.Intn(p.NumNodes()), rng.Intn(p.NumNodes()); u != v && p.FindEdge(u, v) < 0 {
				wider.AddEdge(u, v, rat.One())
				break
			}
		}

		tp := map[string]rat.Rat{} // problem -> throughput on p, send-and-receive
		for i := range builtins {
			b := &builtins[i]
			var both []rat.Rat
			for _, model := range []PortModel{SendAndReceive, SendOrReceive} {
				if !slices.Contains(b.Models, model.String()) {
					continue
				}
				name := fmt.Sprintf("%s: %s/%s", in.name, b.Problem, model)
				base, err := in.solve(b, model, p)
				if err != nil {
					if in.strong {
						t.Fatalf("%s: %v", name, err)
					}
					continue
				}
				both = append(both, base.Throughput)
				if model == SendAndReceive {
					tp[b.Problem] = base.Throughput
				}
				mustSolve := func(what string, q *platform.Platform) rat.Rat {
					t.Helper()
					res, err := in.solve(b, model, q)
					if err != nil {
						t.Fatalf("%s: %s: %v", name, what, err)
					}
					return res.Throughput
				}
				if got := mustSolve("relabelled", relabelled); !got.Equal(base.Throughput) {
					t.Errorf("%s: %v, but %v with nodes and edges declared in another order", name, base.Throughput, got)
				}
				if got := mustSolve("scaled", scaled); !got.Mul(k).Equal(base.Throughput) {
					t.Errorf("%s: %v, but %v with every c and w scaled by %v (want 1/%v of it)", name, base.Throughput, got, k, k)
				}
				if got := mustSolve("wider", wider); got.Cmp(base.Throughput) < 0 {
					t.Errorf("%s: adding an edge lowered %v to %v", name, base.Throughput, got)
				}
				if got := mustSolve("faster", faster); got.Cmp(base.Throughput) < 0 {
					t.Errorf("%s: halving c of edge %d lowered %v to %v", name, fast, base.Throughput, got)
				}
			}
			if len(both) == 2 && both[1].Cmp(both[0]) > 0 {
				t.Errorf("%s: %s: send-or-receive %v beats send-and-receive %v", in.name, b.Problem, both[1], both[0])
			}
		}
		if len(tp) < len(builtins) && in.strong {
			t.Fatalf("%s: %d of %d problems solved", in.name, len(tp), len(builtins))
		}

		// Relations between problems (send-and-receive).
		byName := map[string]*builtinProblem{}
		for i := range builtins {
			byName[builtins[i].Problem] = &builtins[i]
		}
		// §4.2: a reduce is a broadcast run backwards. Reverse(G) is
		// rebuilt by hand, so the reduce solver's own reversal hands the
		// engine an LP in another order than the broadcast's.
		if want, ok := tp["broadcast"]; ok {
			res, err := in.solve(byName["reduce"], SendAndReceive, rebuilt(p, rng, true))
			if err != nil {
				t.Fatalf("%s: reduce on Reverse(G): %v", in.name, err)
			}
			if !res.Throughput.Equal(want) {
				t.Errorf("%s: broadcast on G is %v, reduce on Reverse(G) %v", in.name, want, res.Throughput)
			}
		}
		// §3.3 / §4.3: distinct messages <= identical messages along trees
		// <= the max-operator relaxation; the sum-LP is the scatter LP.
		chain := []string{"multicast-sum", "scatter", "multicast-trees", "multicast"}
		for i := 1; i < len(chain); i++ {
			lo, hi := tp[chain[i-1]], tp[chain[i]]
			if lo.Cmp(hi) > 0 || (i == 1 && !lo.Equal(hi)) {
				t.Errorf("%s: %s %v, %s %v", in.name, chain[i-1], lo, chain[i], hi)
			}
		}
		// A set of targets is served no faster than any one of them
		// alone, and alone every target-taking problem is the same one:
		// the max flow to that target under the port rows, the bound of
		// §3.3. Deleting every route to a target zeroes whatever must
		// reach it. Broadcast picks its own targets — what the root still
		// reaches — so it is held to both as what it is, the multicast
		// bound to everyone.
		last := in.targets[len(in.targets)-1]
		cut := cutOff(p, p.NodeByName(last))
		toEveryone := in
		toEveryone.targets = nil
		for i, ok := range p.ReachableFrom(p.NodeByName(in.root)) {
			if ok && p.Name(i) != in.root {
				toEveryone.targets = append(toEveryone.targets, p.Name(i))
			}
		}
		for i := range builtins {
			b, to := &builtins[i], in
			if b.Problem == "broadcast" {
				b, to = byName["multicast"], toEveryone
				if res, err := to.solve(b, SendAndReceive, p); err != nil || !res.Throughput.Equal(tp["broadcast"]) {
					t.Errorf("%s: broadcast %v, multicast bound to every node %v %v", in.name, tp["broadcast"], res, err)
				}
			} else if !b.NeedsTargets {
				continue
			}
			// The tree packing has no tree to pack and says so: its zero.
			res, err := to.solve(b, SendAndReceive, cut)
			if noTree := err != nil && strings.Contains(err.Error(), "no multicast tree covers all targets"); !noTree && (err != nil || !res.Throughput.IsZero()) {
				t.Errorf("%s: %s to %v with every edge into %s deleted: %v %v, want 0", in.name, b.Problem, to.targets, last, res, err)
			}
			for _, target := range in.targets {
				alone := in
				alone.targets = []string{target}
				flow, err := alone.solve(byName["scatter"], SendAndReceive, p)
				if err != nil {
					t.Fatalf("%s: scatter to %s alone: %v", in.name, target, err)
				}
				if res, err := alone.solve(b, SendAndReceive, p); err != nil || !res.Throughput.Equal(flow.Throughput) {
					t.Errorf("%s: %s to %s alone %v %v, the max flow to it %v", in.name, b.Problem, target, res, err, flow.Throughput)
				}
				if res, err := to.solve(b, SendAndReceive, p); err != nil || res.Throughput.Cmp(flow.Throughput) > 0 {
					t.Errorf("%s: %s to %v %v %v beats the max flow to %s alone, %v", in.name, b.Problem, to.targets, res, err, target, flow.Throughput)
				}
			}
		}
		if !in.strong {
			continue
		}
		// An all-to-all between two nodes contains a scatter each way at
		// the same rate, and one among more nodes contains it.
		root := p.NodeByName(in.root)
		targets, _ := resolveTargets(p, in.targets)
		participants := append([]int{root}, targets...)
		all, err := core.SolveAllToAll(p, participants)
		if err != nil {
			t.Fatalf("%s: all-to-all: %v", in.name, err)
		}
		for i, a := range participants {
			for _, b := range participants[i+1:] {
				pair, err := core.SolveAllToAll(p, []int{a, b})
				if err != nil {
					t.Fatalf("%s: all-to-all %d, %d: %v", in.name, a, b, err)
				}
				if all.Throughput.Cmp(pair.Throughput) > 0 {
					t.Errorf("%s: all-to-all %v among %v beats %v between %d and %d alone", in.name, all.Throughput, participants, pair.Throughput, a, b)
				}
				for _, dir := range [][2]int{{a, b}, {b, a}} {
					sc, err := core.SolveScatter(p, dir[0], dir[1:])
					if err != nil {
						t.Fatalf("%s: scatter %v: %v", in.name, dir, err)
					}
					if pair.Throughput.Cmp(sc.Throughput) > 0 {
						t.Errorf("%s: all-to-all %v between %d and %d beats the scatter %d -> %d alone, %v",
							in.name, pair.Throughput, a, b, dir[0], dir[1], sc.Throughput)
					}
				}
			}
		}
		// §5.1.2 with one card per direction is the one-port model.
		caps := core.UniformPorts(p, 1)
		multi, err := core.SolveMasterSlaveMultiport(p, root, caps)
		if err != nil {
			t.Fatalf("%s: multiport: %v", in.name, err)
		}
		cards, err := core.SolveMasterSlaveCards(p, root, core.RoundRobinCards(p, caps))
		if err != nil {
			t.Fatalf("%s: cards: %v", in.name, err)
		}
		if want := tp["masterslave"]; !multi.Throughput.Equal(want) || !cards.Throughput.Equal(want) {
			t.Errorf("%s: one-port %v, multiport k=1 %v, cards k=1 %v", in.name, want, multi.Throughput, cards.Throughput)
		}
	}
}
