package steady_test

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/pkg/steady"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

// TestActivityViews holds Nodes, Links and Rates to the α and s
// vectors of the problem's core solution, solved again outside the
// facade, with α/w and the names computed here: on every served corpus
// case (masterslave under both port models among them), and on Figure 2
// for the rows the corpus does not pose (multicast, whose links are its
// bound's, and multicast-trees, which has no activity variables).
func TestActivityViews(t *testing.T) {
	cases := corpus.Served(false)
	fig2 := platform.Figure2()
	for _, problem := range []string{"multicast", "multicast-trees"} {
		cases = append(cases, corpus.Case{Name: problem + "/figure2", Problem: problem, Targets: []string{"P5", "P6"}, Platform: fig2})
	}
	for _, c := range cases {
		p := c.Platform
		res := mustSolve(t, steady.Spec{Problem: c.Problem, Targets: c.Targets, Model: c.Model}, p)
		var targets []int
		for _, name := range c.Targets {
			targets = append(targets, p.NodeByName(name))
		}
		var alpha, busy []rat.Rat
		var err error
		var sc *core.Scatter
		switch c.Problem {
		case "masterslave":
			var ms *core.MasterSlave
			ms, err = core.SolveMasterSlavePort(p, 0, c.Model)
			if ms != nil {
				alpha, busy = ms.Alpha, ms.S
			}
		case "scatter", "multicast-sum":
			sc, err = core.SolveScatterPort(p, 0, targets, c.Model)
		case "multicast":
			sc, err = core.SolveMulticastBound(p, 0, targets)
		case "broadcast":
			sc, err = core.SolveBroadcastBound(p, 0)
		case "reduce":
			sc, err = core.SolveReduceBound(p, 0)
		case "multicast-trees":
		default:
			t.Fatalf("%s: no core solve for %s", c.Name, c.Problem)
		}
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if sc != nil {
			busy = sc.S
		}

		var wantNodes []steady.NodeActivity
		var wantRates []steady.NodeRate
		for i, a := range alpha {
			n := steady.NodeActivity{Name: p.Name(i), Alpha: a}
			nr := steady.NodeRate{Name: p.Name(i), Alpha: a.String()}
			if w := p.Weight(i); !w.Inf && !a.IsZero() {
				n.Rate = a.Mul(w.Val.Inv())
				nr.Rate = n.Rate.String()
			}
			wantNodes = append(wantNodes, n)
			wantRates = append(wantRates, nr)
		}
		var wantLinks []steady.LinkActivity
		var wantLinkRates []steady.LinkRate
		for e, b := range busy {
			ed := p.Edge(e)
			wantLinks = append(wantLinks, steady.LinkActivity{From: p.Name(ed.From), To: p.Name(ed.To), Busy: b})
			wantLinkRates = append(wantLinkRates, steady.LinkRate{From: p.Name(ed.From), To: p.Name(ed.To), Busy: b.String()})
		}

		nodes, links := res.Nodes(), res.Links()
		if !slices.EqualFunc(nodes, wantNodes, equalNode) {
			t.Fatalf("%s: Nodes() = %v, want %v", c.Name, nodes, wantNodes)
		}
		if !slices.EqualFunc(links, wantLinks, equalLink) {
			t.Fatalf("%s: Links() = %v, want %v", c.Name, links, wantLinks)
		}
		if (alpha == nil) != (nodes == nil) || (busy == nil) != (links == nil) {
			t.Fatalf("%s: Nodes() nil %v, Links() nil %v; want %v, %v", c.Name, nodes == nil, links == nil, alpha == nil, busy == nil)
		}
		gotRates, gotLinkRates := res.Rates()
		if !slices.Equal(gotRates, wantRates) || !slices.Equal(gotLinkRates, wantLinkRates) {
			t.Fatalf("%s: Rates() = %v, %v; want %v, %v", c.Name, gotRates, gotLinkRates, wantRates, wantLinkRates)
		}
		if again := res.Nodes(); len(again) > 0 && &again[0] == &nodes[0] {
			t.Fatalf("%s: Nodes() handed out the same slice twice", c.Name)
		}
	}
}

func equalNode(a, b steady.NodeActivity) bool {
	return a.Name == b.Name && a.Alpha.Equal(b.Alpha) && a.Rate.Equal(b.Rate)
}

func equalLink(a, b steady.LinkActivity) bool {
	return a.From == b.From && a.To == b.To && a.Busy.Equal(b.Busy)
}

// TestActivityViewsShared: goroutines sharing one result, as a cache's
// callers do, each get slices of their own. Every caller scribbles over
// what it got, and the next call still returns the solution.
func TestActivityViewsShared(t *testing.T) {
	res := mustSolve(t, steady.Spec{Problem: "masterslave"}, corpus.Served(true)[0].Platform)
	wantNodes, wantLinks := res.Rates()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				nodes, links := res.Nodes(), res.Links()
				for j := range nodes {
					nodes[j] = steady.NodeActivity{Name: "scribbled", Alpha: rat.One()}
				}
				for j := range links {
					links[j].Busy = rat.One()
				}
				if gotNodes, gotLinks := res.Rates(); !slices.Equal(gotNodes, wantNodes) || !slices.Equal(gotLinks, wantLinks) {
					t.Error("a caller's edit of its views reached the shared result")
					return
				}
			}
		}()
	}
	wg.Wait()
}
