package control

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/pkg/steady"
	"repro/pkg/steady/obs"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

// demoPlatform is the control-plane test fixture: a 3-node star whose
// master-slave LP has a unique optimum both nominally (throughput
// 7/4) and after the injected c(P1>P2)=4 shift (17/12), so schedules
// are comparable byte-for-byte across solve paths.
func demoPlatform() *platform.Platform {
	p := platform.New()
	p1 := p.AddNode("P1", platform.WInt(1))
	p2 := p.AddNode("P2", platform.WInt(2))
	p3 := p.AddNode("P3", platform.WInt(3))
	p.AddEdge(p1, p2, rat.FromInt(1))
	p.AddEdge(p1, p3, rat.FromInt(2))
	return p
}

func demoSpec() steady.Spec { return steady.Spec{Problem: "masterslave", Root: "P1"} }

func mustCreate(t *testing.T, m *Manager, id string) *Snapshot {
	t.Helper()
	snap, err := m.Create(context.Background(), id, demoSpec(), demoPlatform())
	if err != nil {
		t.Fatalf("Create(%q): %v", id, err)
	}
	return snap
}

// driftBatch is telemetry that shifts c(P1>P2) from 1 to 1.5: a 50%
// drift, well past the default threshold. 1.5 is exact in binary, so
// the estimated platform equals the true drifted platform
// fingerprint-for-fingerprint.
var driftBatch = []Observation{{From: "P1", To: "P2", Value: 1.5}}

func TestManagerLifecycle(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()

	snap := mustCreate(t, m, "demo")
	if snap.Epoch == nil || snap.Epoch.Version != 1 {
		t.Fatalf("create epoch = %+v, want version 1", snap.Epoch)
	}
	if snap.Epoch.Throughput != "7/4" {
		t.Fatalf("nominal throughput = %q, want 7/4", snap.Epoch.Throughput)
	}
	if snap.Epoch.Reason != "create" {
		t.Fatalf("reason = %q, want create", snap.Epoch.Reason)
	}
	if len(snap.Epoch.Links) != 2 || len(snap.Epoch.Nodes) != 3 {
		t.Fatalf("epoch has %d nodes, %d links; want 3, 2", len(snap.Epoch.Nodes), len(snap.Epoch.Links))
	}
	if snap.Epoch.Delta != nil {
		t.Fatalf("first epoch has a delta: %+v", snap.Epoch.Delta)
	}

	got, err := m.Get("demo")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got.Epoch.Version != 1 || got.Resolves != 1 {
		t.Fatalf("Get snapshot = version %d, resolves %d; want 1, 1", got.Epoch.Version, got.Resolves)
	}
	if ids := m.List(); len(ids) != 1 || ids[0] != "demo" {
		t.Fatalf("List = %v", ids)
	}

	if err := m.Remove("demo"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := m.Get("demo"); !errors.Is(err, ErrUnknownDeployment) {
		t.Fatalf("Get after Remove = %v, want ErrUnknownDeployment", err)
	}
	if err := m.Remove("demo"); !errors.Is(err, ErrUnknownDeployment) {
		t.Fatalf("double Remove = %v, want ErrUnknownDeployment", err)
	}
}

// TestRegistryStaysSorted: creates, replaces and removes in any order
// leave the registry sorted by id, and never write a slice a Tick may
// be ranging over: the one read before a Create or a Remove still holds
// what it held.
func TestRegistryStaysSorted(t *testing.T) {
	m := NewManager(Config{Epoch: time.Hour})
	defer m.Close()
	for _, id := range []string{"m", "c", "x", "a", "q", "c"} {
		mustCreate(t, m, id)
	}
	unwritten := func(op string, f func() error) {
		t.Helper()
		read := m.deps
		before := slices.Clone(read)
		if err := f(); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if !slices.Equal(read, before) {
			t.Errorf("%s wrote the registry slice a Tick read", op)
		}
	}
	create := func(id string) func() error {
		return func() error {
			_, err := m.Create(context.Background(), id, demoSpec(), demoPlatform())
			return err
		}
	}
	unwritten("Create(b)", create("b"))
	unwritten("Create(x), a replace", create("x"))
	unwritten("Remove(q)", func() error { return m.Remove("q") })
	unwritten("Remove(a)", func() error { return m.Remove("a") })
	if ids := m.List(); !slices.Equal(ids, []string{"b", "c", "m", "x"}) {
		t.Fatalf("List = %v, want [b c m x]", ids)
	}
	for _, id := range []string{"b", "c", "m", "x"} {
		if _, err := m.Get(id); err != nil {
			t.Errorf("Get(%q): %v", id, err)
		}
	}
	for _, id := range []string{"a", "q", "z"} {
		if _, err := m.Get(id); !errors.Is(err, ErrUnknownDeployment) {
			t.Errorf("Get(%q) = %v, want ErrUnknownDeployment", id, err)
		}
	}
}

func TestCreateRejectsBadInput(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	ctx := context.Background()

	for _, id := range []string{"", "a b", "x/y", ".hidden", "-lead", string(make([]byte, 80))} {
		if _, err := m.Create(ctx, id, demoSpec(), demoPlatform()); !errors.Is(err, ErrBadDeployment) {
			t.Errorf("Create(id=%q) = %v, want ErrBadDeployment", id, err)
		}
	}
	if _, err := m.Create(ctx, "ok", steady.Spec{Problem: "no-such"}, demoPlatform()); !errors.Is(err, steady.ErrUnknownProblem) {
		t.Errorf("bad problem = %v, want ErrUnknownProblem", err)
	}
	if _, err := m.Create(ctx, "ok", demoSpec(), nil); !errors.Is(err, ErrBadDeployment) {
		t.Errorf("nil platform = %v, want ErrBadDeployment", err)
	}
	// A failed create registers nothing.
	if _, err := m.Create(ctx, "ghost", steady.Spec{Problem: "masterslave", Root: "NoSuchNode"}, demoPlatform()); err == nil {
		t.Fatal("create with unknown root succeeded")
	}
	if _, err := m.Get("ghost"); !errors.Is(err, ErrUnknownDeployment) {
		t.Errorf("failed create visible: %v", err)
	}
}

func TestDeploymentCap(t *testing.T) {
	m := NewManager(Config{MaxDeployments: 2})
	defer m.Close()
	mustCreate(t, m, "a")
	mustCreate(t, m, "b")
	if _, err := m.Create(context.Background(), "c", demoSpec(), demoPlatform()); !errors.Is(err, ErrTooManyDeployments) {
		t.Fatalf("third create = %v, want ErrTooManyDeployments", err)
	}
	// Replacing an existing deployment stays within the cap.
	if _, err := m.Create(context.Background(), "b", demoSpec(), demoPlatform()); err != nil {
		t.Fatalf("replace at cap: %v", err)
	}
}

// TestTelemetryValidation table-tests every bad payload shape: the
// whole batch must be rejected (HTTP 400 upstream) and no forecaster
// may see any of it — including the valid observations riding along.
// Which values the guard refuses is TestEstimatorGuard's
// table; here one hostile value, and the zero the simulator path
// reads as "nothing observed", prove the wire boundary applies it.
func TestTelemetryValidation(t *testing.T) {
	withForwarder := func() *platform.Platform {
		p := demoPlatform()
		f := p.AddNode("F", platform.WInf())
		p.AddEdge(0, f, rat.FromInt(1))
		return p
	}
	m := NewManager(Config{})
	defer m.Close()
	if _, err := m.Create(context.Background(), "demo", demoSpec(), withForwarder()); err != nil {
		t.Fatalf("create: %v", err)
	}

	valid := Observation{From: "P1", To: "P2", Value: 2}
	cases := map[string]struct {
		batch   []Observation
		wantErr error
	}{
		"empty batch":       {nil, ErrBadObservation},
		"unknown node":      {[]Observation{{Node: "P9", Value: 1}}, ErrBadObservation},
		"forwarder node":    {[]Observation{{Node: "F", Value: 1}}, ErrBadObservation},
		"unknown edge":      {[]Observation{{From: "P2", To: "P3", Value: 1}}, ErrBadObservation},
		"unknown endpoint":  {[]Observation{{From: "P1", To: "P9", Value: 1}}, ErrBadObservation},
		"node and edge":     {[]Observation{{Node: "P1", From: "P1", To: "P2", Value: 1}}, ErrBadObservation},
		"neither":           {[]Observation{{Value: 1}}, ErrBadObservation},
		"edge missing to":   {[]Observation{{From: "P1", Value: 1}}, ErrBadObservation},
		"NaN value":         {[]Observation{{Node: "P1", Value: math.NaN()}}, ErrBadMeasurement},
		"zero value":        {[]Observation{{Node: "P2", Value: 0}}, ErrBadMeasurement},
		"valid riding bad":  {[]Observation{valid, {Node: "P1", Value: math.NaN()}}, ErrBadMeasurement},
		"bad riding valid":  {[]Observation{{Node: "P9", Value: 1}, valid}, ErrBadObservation},
		"two distinct bads": {[]Observation{{Node: "P9", Value: 1}, {Node: "P1", Value: -1}}, ErrBadObservation},
		// A bad edge does not spare its value the guard.
		"NaN on unknown endpoint": {[]Observation{{From: "P1", To: "P9", Value: math.NaN()}}, ErrBadMeasurement},
		"negative on no edge":     {[]Observation{{From: "P2", To: "P3", Value: -1}}, ErrBadMeasurement},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			n, err := m.Observe("demo", tc.batch)
			if err == nil || n != 0 {
				t.Fatalf("Observe accepted bad batch (n=%d, err=%v)", n, err)
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("Observe error = %v, want %v in chain", err, tc.wantErr)
			}
		})
	}

	// Atomicity: none of the valid observations riding in rejected
	// batches reached a series.
	snap, err := m.Get("demo")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Observations != 0 {
		t.Fatalf("rejected batches leaked %d observations into forecasters", snap.Observations)
	}

	if _, err := m.Observe("nope", []Observation{valid}); !errors.Is(err, ErrUnknownDeployment) {
		t.Fatalf("Observe on unknown deployment = %v", err)
	}
	if n, err := m.Observe("demo", []Observation{valid, {Node: "P2", Value: 2.1}}); err != nil || n != 2 {
		t.Fatalf("valid batch rejected: n=%d err=%v", n, err)
	}
	snap, _ = m.Get("demo")
	if snap.Observations != 2 {
		t.Fatalf("accepted observations = %d, want 2", snap.Observations)
	}
}

// seriesState flattens every series of a deployment's estimator:
// forecast bits, chosen sub-predictor and count, per node then per edge.
func seriesState(m *Manager, id string) []string {
	d, _ := m.lookup(id)
	d.mu.Lock()
	defer d.mu.Unlock()
	base := d.est.base
	var out []string
	for i := 0; i < base.NumNodes(); i++ {
		v, name, n := d.est.nodes[i].state()
		out = append(out, fmt.Sprintf("node %d: %#x %q %d", i, math.Float64bits(v), name, n))
	}
	for e := 0; e < base.NumEdges(); e++ {
		v, name, n := d.est.edges[e].state()
		out = append(out, fmt.Sprintf("edge %d: %#x %q %d", e, math.Float64bits(v), name, n))
	}
	return out
}

// TestObserveTransactionalAtSize is the whole-batch contract at a size
// where validate-then-apply matters and the deployment's scratch does
// not fit: 10 000 valid observations followed by one bad one change no
// series, and the same 10 000 alone are all applied.
func TestObserveTransactionalAtSize(t *testing.T) {
	m := NewManager(Config{Epoch: time.Hour})
	defer m.Close()
	mustCreate(t, m, "demo")
	if _, err := m.Observe("demo", []Observation{{Node: "P2", Value: 2.25}, {From: "P1", To: "P3", Value: 1.75}}); err != nil {
		t.Fatal(err)
	}
	before := seriesState(m, "demo")

	big := make([]Observation, 0, 10001)
	for i := 0; i < 10000; i++ {
		v := 1 + float64(i%97)/64
		if i%3 == 0 {
			big = append(big, Observation{Node: "P3", Value: v})
		} else {
			big = append(big, Observation{From: "P1", To: "P2", Value: v})
		}
	}
	for name, last := range map[string]Observation{
		"unknown node": {Node: "P9", Value: 1},
		"bad value":    {Node: "P2", Value: math.Inf(1)},
	} {
		n, err := m.Observe("demo", append(big, last))
		if err == nil || n != 0 {
			t.Fatalf("%s: Observe accepted the batch (n=%d)", name, n)
		}
		if !strings.Contains(err.Error(), "observation 10000:") {
			t.Fatalf("%s: error does not name the bad observation: %v", name, err)
		}
		if after := seriesState(m, "demo"); !slices.Equal(before, after) {
			t.Fatalf("%s: a rejected batch moved a series:\nbefore %v\nafter  %v", name, before, after)
		}
	}

	if n, err := m.Observe("demo", big); err != nil || n != len(big) {
		t.Fatalf("valid batch: n=%d err=%v", n, err)
	}
	snap, err := m.Get("demo")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Observations != int64(2+len(big)) {
		t.Fatalf("observations = %d, want %d", snap.Observations, 2+len(big))
	}
	// A short batch after a long one lands on the right series: the
	// scratch is per batch, not remembered.
	if _, err := m.Observe("demo", []Observation{{Node: "P2", Value: 9}}); err != nil {
		t.Fatal(err)
	}
	if snap, _ = m.Get("demo"); snap.Nodes[1].Observations != 2 {
		t.Fatalf("P2 has %d observations, want 2", snap.Nodes[1].Observations)
	}
}

// TestObserveAllocations: a full batch — every node and edge once — is
// validated and applied without touching the heap.
func TestObserveAllocations(t *testing.T) {
	m := NewManager(Config{Epoch: time.Hour})
	defer m.Close()
	mustCreate(t, m, "demo")
	batch := []Observation{
		{Node: "P1", Value: 1}, {Node: "P2", Value: 2}, {Node: "P3", Value: 3},
		{From: "P1", To: "P2", Value: 1.5}, {From: "P1", To: "P3", Value: 2.5},
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := m.Observe("demo", batch); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("%.1f allocations per Observe, want 0", allocs)
	}
}

// BenchmarkObserve is the control half of a telemetry POST
// (BenchmarkServerHandleTelemetry in pkg/steady/server): one batch —
// every computing node at its nominal cost and every edge at nominal
// times k/8, on the RandomConnected platform of n nodes the server's
// rulers deploy — validated, resolved by name and fed to its
// forecasters. As in bench/'s control_drift, a batch is posted 100
// times before the edge costs switch to the next regime.
func BenchmarkObserve(b *testing.B) {
	for _, n := range []int{10, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := NewManager(Config{Epoch: time.Hour})
			defer m.Close()
			p := platform.RandomConnected(rand.New(rand.NewSource(int64(n))), n, n, 5, 5, 0.15)
			if _, err := m.Create(context.Background(), "bench", steady.Spec{Problem: "masterslave", Root: p.Name(0)}, p); err != nil {
				b.Fatal(err)
			}
			var regimes [][]Observation
			for _, k := range []float64{11, 6, 9} {
				var batch []Observation
				for i := range p.NumNodes() {
					if w := p.Weight(i); !w.Inf {
						batch = append(batch, Observation{Node: p.Name(i), Value: w.Val.Float64()})
					}
				}
				for _, e := range p.Edges() {
					batch = append(batch, Observation{From: p.Name(e.From), To: p.Name(e.To), Value: e.C.Float64() * k / 8})
				}
				regimes = append(regimes, batch)
			}
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				if _, err := m.Observe("bench", regimes[i/100%len(regimes)]); err != nil {
					b.Fatal(err)
				}
				i++
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(regimes[0])), "ns/observation")
		})
	}
}

// TestObserveNamesFollowReplace: a replace renames the nodes Observe
// resolves. The old platform's names are refused with the same error
// any unknown name gets, and the new ones land on their own indices.
func TestObserveNamesFollowReplace(t *testing.T) {
	m := NewManager(Config{Epoch: time.Hour})
	defer m.Close()
	mustCreate(t, m, "demo")
	p := platform.New()
	q2 := p.AddNode("Q2", platform.WInt(2))
	q1 := p.AddNode("Q1", platform.WInt(1))
	p.AddEdge(q1, q2, rat.FromInt(1))
	if _, err := m.Create(context.Background(), "demo", steady.Spec{Problem: "masterslave", Root: "Q1"}, p); err != nil {
		t.Fatal(err)
	}
	_, err := m.Observe("demo", []Observation{{Node: "P2", Value: 2}})
	if want := `observation 0: control: bad observation: unknown node "P2"`; err == nil || err.Error() != want {
		t.Fatalf("old name after replace: %v, want %s", err, want)
	}
	_, err = m.Observe("demo", []Observation{{From: "P1", To: "Q2", Value: 1}})
	if want := `observation 0: control: bad observation: unknown edge P1>Q2`; err == nil || err.Error() != want {
		t.Fatalf("old endpoint after replace: %v, want %s", err, want)
	}
	if n, err := m.Observe("demo", []Observation{{Node: "Q1", Value: 1}, {From: "Q1", To: "Q2", Value: 1}}); err != nil || n != 2 {
		t.Fatalf("new names after replace: %d, %v", n, err)
	}
}

// resolveByScan is Observe's name resolution as it was before the
// index: NodeByName's linear scan for every name, then FindEdge. It
// returns the node or edge an observation lands on, or the problem
// Observe reports for it.
func resolveByScan(p *platform.Platform, o Observation) (node, edge int, problem string) {
	if o.Node != "" {
		switch n := p.NodeByName(o.Node); {
		case n < 0:
			return -1, -1, fmt.Sprintf("unknown node %q", o.Node)
		case p.Weight(n).Inf:
			return -1, -1, fmt.Sprintf("node %q is forwarder-only (w = inf) and has no compute cost", o.Node)
		default:
			return n, -1, ""
		}
	}
	from, to := p.NodeByName(o.From), p.NodeByName(o.To)
	if from < 0 || to < 0 {
		return -1, -1, fmt.Sprintf("unknown edge %s>%s", o.From, o.To)
	}
	if e := p.FindEdge(from, to); e >= 0 {
		return -1, e, ""
	}
	return -1, -1, fmt.Sprintf("no edge %s>%s in the platform", o.From, o.To)
}

// TestObserveResolvesLikeNodeByName holds Observe's name index to the
// scan it replaced: every node, every ordered pair of nodes (an edge or
// no edge), unknown names alone and as either endpoint, and
// forwarder-only nodes land on the series resolveByScan names — that
// series' count, and no other, goes up by one — or are refused with
// its problem, word for word. The last platform is built with AddNode
// and names two nodes alike; the first of them wins, as in NodeByName.
func TestObserveResolvesLikeNodeByName(t *testing.T) {
	dup := platform.New()
	a := dup.AddNode("A", platform.WInt(1))
	b := dup.AddNode("B", platform.WInt(2))
	a2 := dup.AddNode("A", platform.WInt(3))
	f := dup.AddNode("F", platform.WInf())
	dup.AddEdge(a, b, rat.FromInt(1))
	dup.AddEdge(b, a2, rat.FromInt(2))
	dup.AddEdge(a2, f, rat.FromInt(3))
	dup.AddEdge(f, a, rat.FromInt(4))
	platforms := map[string]*platform.Platform{
		"figure1":   platform.Figure1(),
		"n=10":      platform.RandomConnected(rand.New(rand.NewSource(10)), 10, 10, 5, 5, 0.15),
		"n=64":      platform.RandomConnected(rand.New(rand.NewSource(64)), 64, 64, 5, 5, 0.15),
		"duplicate": dup,
	}
	for name, p := range platforms {
		t.Run(name, func(t *testing.T) {
			m := NewManager(Config{Epoch: time.Hour})
			defer m.Close()
			if _, err := m.Create(context.Background(), "d", steady.Spec{Problem: "masterslave", Root: p.Name(0)}, p); err != nil {
				t.Fatal(err)
			}
			d, _ := m.lookup("d")
			names := []string{"nope", p.Name(0) + "x", p.Name(p.NumNodes() - 1)[:1]}
			for i := range p.NumNodes() {
				names = append(names, p.Name(i))
			}
			var cases []Observation
			forwarders, edges := 0, map[int]bool{}
			for _, from := range names {
				cases = append(cases, Observation{Node: from, Value: 1})
				for _, to := range names {
					cases = append(cases, Observation{From: from, To: to, Value: 1})
				}
			}
			for _, o := range cases {
				node, edge, problem := resolveByScan(p, o)
				before := d.observations
				var was int64
				switch {
				case node >= 0:
					was = d.est.nodes[node].f.n
				case edge >= 0:
					was = d.est.edges[edge].f.n
				}
				_, err := m.Observe("d", []Observation{o})
				if problem != "" {
					want := fmt.Sprintf("observation 0: %v: %s", ErrBadObservation, problem)
					if err == nil || err.Error() != want {
						t.Fatalf("%+v: %v, want %s", o, err, want)
					}
					if d.observations != before {
						t.Fatalf("%+v: a refused observation was counted", o)
					}
					if strings.Contains(problem, "forwarder-only") {
						forwarders++
					}
					continue
				}
				if err != nil {
					t.Fatalf("%+v: %v", o, err)
				}
				now := d.est.edges
				i := edge
				if node >= 0 {
					now, i = d.est.nodes, node
				} else {
					edges[edge] = true
				}
				if now[i].f.n != was+1 || d.observations != before+1 {
					t.Fatalf("%+v: series %d counts %d observations (was %d), deployment %d (was %d)",
						o, i, now[i].f.n, was, d.observations, before)
				}
			}
			// Every edge was reached by its endpoints' names (a parallel
			// edge only through the first of its twins).
			for e, ed := range p.Edges() {
				if first := p.FindEdge(p.NodeByName(p.Name(ed.From)), p.NodeByName(p.Name(ed.To))); first == e && !edges[e] {
					t.Fatalf("edge %d was never observed", e)
				}
			}
			t.Logf("%d cases, %d edges observed, %d forwarder-only refusals", len(cases), len(edges), forwarders)
		})
	}
}

// TestObserveGuessesAreResolutions: Observe first tries, at each
// position of a batch, what the same position of the last batch
// resolved to. On a platform with a repeated name and a parallel edge,
// batches of every observation resolveByScan accepts, shuffled so that
// most guesses are stale and some name the same nodes by another
// observation, land each observation on the series resolveByScan
// names. So do the first batches, whose slots hold no guess yet (edge 0
// is named like the edge they observe), and a batch with a refused
// observation in it changes nothing and misleads no later batch.
func TestObserveGuessesAreResolutions(t *testing.T) {
	p := platform.New()
	a := p.AddNode("A", platform.WInt(1))
	b := p.AddNode("B", platform.WInt(2))
	a2 := p.AddNode("A", platform.WInt(3))
	c := p.AddNode("C", platform.WInt(4))
	p.AddEdge(a2, b, rat.FromInt(6)) // edge 0 and named A>B, yet A>B is edge 1
	p.AddEdge(a, b, rat.FromInt(1))
	p.AddEdge(a, b, rat.FromInt(5)) // reached only as its twin
	p.AddEdge(b, a2, rat.FromInt(2))
	p.AddEdge(a2, c, rat.FromInt(3))
	p.AddEdge(c, a, rat.FromInt(4))
	m := NewManager(Config{Epoch: time.Hour})
	defer m.Close()
	if _, err := m.Create(context.Background(), "d", steady.Spec{Problem: "masterslave", Root: "A"}, p); err != nil {
		t.Fatal(err)
	}
	d, _ := m.lookup("d")
	names := []string{"A", "B", "C", "nope"}
	var valid, refused []Observation
	for _, from := range names {
		for _, o := range append([]Observation{{Node: from, Value: 1}}, func() (es []Observation) {
			for _, to := range names {
				es = append(es, Observation{From: from, To: to, Value: 1})
			}
			return es
		}()...) {
			if _, _, problem := resolveByScan(p, o); problem == "" {
				valid = append(valid, o)
			} else {
				refused = append(refused, o)
			}
		}
	}
	counts := func() (n []int64) {
		for _, ss := range [][]series{d.est.nodes, d.est.edges} {
			for i := range ss {
				n = append(n, ss[i].f.n)
			}
		}
		return n
	}
	rng := rand.New(rand.NewSource(1))
	for round := range 200 {
		batch := slices.Clone(valid)
		rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
		batch = batch[:1+rng.Intn(len(batch))]
		if round < 2 {
			// Slots no batch has reached yet: past the scratch, then in it.
			ab := Observation{From: "A", To: "B", Value: 1}
			batch = slices.Repeat([]Observation{ab}, []int{p.NumNodes() + p.NumEdges() + 2, 3}[round])
		}
		bad := round%5 == 4
		if bad {
			batch[rng.Intn(len(batch))] = refused[rng.Intn(len(refused))]
		}
		want := counts()
		if !bad {
			for _, o := range batch {
				node, edge, _ := resolveByScan(p, o)
				if node >= 0 {
					want[node]++
				} else {
					want[p.NumNodes()+edge]++
				}
			}
		}
		if _, err := m.Observe("d", batch); (err != nil) != bad {
			t.Fatalf("round %d: %v", round, err)
		}
		if got := counts(); !slices.Equal(got, want) {
			t.Fatalf("round %d: series counts %v, want %v\nbatch %+v", round, got, want, batch)
		}
	}
}

// TestDriftResolve is the §5.5 loop end to end in-process: telemetry
// shifts an edge cost 1.5x, the next tick re-solves the estimate, and
// the published epoch carries the drifted schedule plus a delta of
// exactly the changed rates.
func TestDriftResolve(t *testing.T) {
	m := NewManager(Config{Epoch: time.Second})
	defer m.Close()
	mustCreate(t, m, "demo")
	now := time.Now()

	if _, err := m.Observe("demo", driftBatch); err != nil {
		t.Fatalf("Observe: %v", err)
	}
	if n := m.Tick(context.Background(), now.Add(time.Second)); n != 1 {
		t.Fatalf("Tick published %d epochs, want 1", n)
	}
	snap, err := m.Get("demo")
	if err != nil {
		t.Fatal(err)
	}
	ep := snap.Epoch
	if ep.Version != 2 || ep.Reason != "drift" {
		t.Fatalf("epoch = version %d reason %q, want 2/drift", ep.Version, ep.Reason)
	}
	if ep.Throughput != "13/8" {
		t.Fatalf("drifted throughput = %q, want 13/8", ep.Throughput)
	}
	if ep.Pivots > 2 {
		t.Fatalf("drift re-solve took %d exact pivots, want ~0", ep.Pivots)
	}
	if ep.MaxDrift < 0.45 || ep.MaxDrift > 0.55 {
		t.Fatalf("MaxDrift = %v, want ~0.5 (1 -> 1.5)", ep.MaxDrift)
	}
	if ep.Delta == nil || ep.Delta.FromVersion != 1 || !ep.Delta.ThroughputChanged {
		t.Fatalf("delta = %+v, want from_version 1 with throughput change", ep.Delta)
	}
	// Both edge rates move (the send budget is re-split) but only P3's
	// compute rate changes — P1 and the still-saturated P2 must stay
	// out of the delta.
	if len(ep.Delta.Links) != 2 {
		t.Fatalf("delta links = %+v, want both edges changed", ep.Delta.Links)
	}
	if len(ep.Delta.Nodes) != 1 || ep.Delta.Nodes[0].Name != "P3" {
		t.Fatalf("delta nodes = %+v, want exactly P3", ep.Delta.Nodes)
	}

	// The model now matches the telemetry: no further drift, no
	// further re-solves.
	if n := m.Tick(context.Background(), now.Add(2*time.Second)); n != 0 {
		t.Fatalf("steady tick published %d epochs, want 0", n)
	}

	// And the published schedule equals a fresh certified solve of
	// the drifted platform, byte for byte.
	drifted := platform.New()
	p1 := drifted.AddNode("P1", platform.WInt(1))
	p2 := drifted.AddNode("P2", platform.WInt(2))
	p3 := drifted.AddNode("P3", platform.WInt(3))
	drifted.AddEdge(p1, p2, rat.New(3, 2))
	drifted.AddEdge(p1, p3, rat.FromInt(2))
	solver, _ := steady.New(demoSpec())
	fresh, err := solver.Solve(context.Background(), drifted)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Fingerprint != ep.Fingerprint {
		t.Fatalf("estimated platform fingerprint %s != drifted platform %s", ep.Fingerprint, fresh.Fingerprint)
	}
	if fresh.Throughput.String() != ep.Throughput {
		t.Fatalf("throughput %s != fresh certified %s", ep.Throughput, fresh.Throughput)
	}
	for i, n := range fresh.Nodes() {
		if ep.Nodes[i].Alpha != n.Alpha.String() {
			t.Fatalf("node %s alpha %s != fresh %s", n.Name, ep.Nodes[i].Alpha, n.Alpha)
		}
	}
	for i, l := range fresh.Links() {
		if ep.Links[i].Busy != l.Busy.String() {
			t.Fatalf("link %s>%s busy %s != fresh %s", l.From, l.To, ep.Links[i].Busy, l.Busy)
		}
	}
}

func TestDriftBelowThresholdDoesNotResolve(t *testing.T) {
	m := NewManager(Config{Epoch: time.Second, DriftThreshold: 0.5})
	defer m.Close()
	mustCreate(t, m, "demo")
	// 1 -> 1.2 is a 20% change, under the 50% threshold.
	if _, err := m.Observe("demo", []Observation{{From: "P1", To: "P2", Value: 1.2}}); err != nil {
		t.Fatal(err)
	}
	if n := m.Tick(context.Background(), time.Now().Add(time.Minute)); n != 0 {
		t.Fatalf("sub-threshold drift published %d epochs", n)
	}
	snap, _ := m.Get("demo")
	if snap.DriftEvents != 0 || snap.Epoch.Version != 1 {
		t.Fatalf("snapshot = %d drift events, version %d; want 0, 1", snap.DriftEvents, snap.Epoch.Version)
	}
}

// TestIdleTickAllocations: a tick over a deployment that does not drift
// touches nothing on the heap — no copy of the registry, no sort — so a
// daemon's epoch loop makes no garbage while the platform holds still,
// at any -control-epoch.
func TestIdleTickAllocations(t *testing.T) {
	m := NewManager(Config{Epoch: time.Hour})
	defer m.Close()
	mustCreate(t, m, "demo")
	ctx, now := context.Background(), time.Now()
	if allocs := testing.AllocsPerRun(200, func() {
		if n := m.Tick(ctx, now); n != 0 {
			t.Fatalf("an idle tick published %d epochs", n)
		}
	}); allocs != 0 {
		t.Fatalf("%.1f allocations per idle Tick, want 0", allocs)
	}
}

// TestMinResolveInterval: the interval spaces drift re-solves, on the
// clock Tick is given. Create reads no clock, so the first drift
// re-solve fires at once even on a virtual clock far behind wall time.
func TestMinResolveInterval(t *testing.T) {
	m := NewManager(Config{Epoch: time.Second, MinResolveInterval: 10 * time.Second})
	defer m.Close()
	mustCreate(t, m, "demo")
	ctx := context.Background()
	t0 := time.Unix(0, 0)
	drift := func(c float64) {
		t.Helper()
		if _, err := m.Observe("demo", []Observation{{From: "P1", To: "P2", Value: c}}); err != nil {
			t.Fatal(err)
		}
	}
	drift(1.5)
	if n := m.Tick(ctx, t0); n != 1 {
		t.Fatalf("first drift tick published %d epochs, want 1", n)
	}
	// Drift is real again but the interval since that re-solve has not
	// elapsed: suppressed, counted as a drift event.
	drift(3)
	if n := m.Tick(ctx, t0.Add(time.Second)); n != 0 {
		t.Fatalf("early tick published %d epochs", n)
	}
	snap, _ := m.Get("demo")
	if snap.DriftEvents != 2 || snap.Epoch.Version != 2 {
		t.Fatalf("after early tick: %d drift events, version %d; want 2, 2", snap.DriftEvents, snap.Epoch.Version)
	}
	// Once the interval elapses the second re-solve fires.
	if n := m.Tick(ctx, t0.Add(11*time.Second)); n != 1 {
		t.Fatalf("late tick published %d epochs, want 1", n)
	}
}

func TestResolveBudget(t *testing.T) {
	m := NewManager(Config{Epoch: time.Second})
	defer m.Close()
	ids := make([]string, resolveBudget+1)
	for i := range ids {
		ids[i] = fmt.Sprintf("d%02d", i)
	}
	// Created last id first: the order is the ids', not the creations'.
	for _, id := range slices.Backward(ids) {
		mustCreate(t, m, id)
		if _, err := m.Observe(id, driftBatch); err != nil {
			t.Fatal(err)
		}
	}
	now := time.Now()
	// One deployment more than the budget drifts: deterministic order
	// means the last id waits for the next tick.
	if n := m.Tick(context.Background(), now.Add(time.Second)); n != resolveBudget {
		t.Fatalf("budgeted tick published %d epochs, want %d", n, resolveBudget)
	}
	last := ids[resolveBudget]
	sa, _ := m.Get(ids[0])
	sb, _ := m.Get(last)
	if sa.Epoch.Version != 2 || sb.Epoch.Version != 1 {
		t.Fatalf("after tick 1: %s=v%d %s=v%d; want 2, 1", ids[0], sa.Epoch.Version, last, sb.Epoch.Version)
	}
	if n := m.Tick(context.Background(), now.Add(2*time.Second)); n != 1 {
		t.Fatalf("second tick published %d epochs, want 1", n)
	}
	sb, _ = m.Get(last)
	if sb.Epoch.Version != 2 {
		t.Fatalf("%s not re-solved on second tick: v%d", last, sb.Epoch.Version)
	}
}

func TestReplaceResetsSeriesAndBumpsVersion(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	mustCreate(t, m, "demo")
	if _, err := m.Observe("demo", driftBatch); err != nil {
		t.Fatal(err)
	}
	sub, err := m.Watch("demo", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	<-sub.Events() // the v1 epoch

	snap, err := m.Create(context.Background(), "demo", demoSpec(), demoPlatform())
	if err != nil {
		t.Fatalf("replace: %v", err)
	}
	if snap.Epoch.Version != 2 || snap.Epoch.Reason != "replace" {
		t.Fatalf("replace epoch = v%d %q, want v2 replace", snap.Epoch.Version, snap.Epoch.Reason)
	}
	if snap.Observations != 0 {
		t.Fatalf("replace kept %d observations; series must reset", snap.Observations)
	}
	// Existing subscribers ride through a replace.
	select {
	case ep := <-sub.Events():
		if ep.Version != 2 || ep.Reason != "replace" {
			t.Fatalf("subscriber saw %+v", ep)
		}
	case <-time.After(time.Second):
		t.Fatal("subscriber did not receive the replace epoch")
	}
	// The old telemetry is gone: no drift on the next tick.
	if n := m.Tick(context.Background(), time.Now().Add(time.Hour)); n != 0 {
		t.Fatalf("replaced deployment still drifting: %d epochs", n)
	}
}

func TestComputeDelta(t *testing.T) {
	prev := &Epoch{
		Version:    3,
		Throughput: "7/4",
		Nodes:      []NodeRate{{Name: "P1", Alpha: "1", Rate: "1"}, {Name: "P2", Alpha: "1", Rate: "1/2"}},
		Links:      []LinkRate{{From: "P1", To: "P2", Busy: "1"}},
	}
	next := &Epoch{
		Version:    4,
		Throughput: "7/4",
		Nodes:      []NodeRate{{Name: "P1", Alpha: "1", Rate: "1"}, {Name: "P2", Alpha: "1/2", Rate: "1/4"}},
		Links:      []LinkRate{{From: "P1", To: "P2", Busy: "1"}},
	}
	d := computeDelta(prev, next)
	if d == nil || d.FromVersion != 3 || d.ThroughputChanged {
		t.Fatalf("delta = %+v", d)
	}
	if len(d.Nodes) != 1 || d.Nodes[0].Name != "P2" || len(d.Links) != 0 {
		t.Fatalf("delta contents = %+v", d)
	}
	// Topology change: no delta.
	if d := computeDelta(prev, &Epoch{Nodes: next.Nodes[:1], Links: next.Links}); d != nil {
		t.Fatalf("topology-changing delta = %+v, want nil", d)
	}
}

func TestConcurrentTelemetryAndTicks(t *testing.T) {
	m := NewManager(Config{Epoch: time.Second})
	defer m.Close()
	mustCreate(t, m, "demo")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := 1 + float64((g*31+i)%40)/10 // 1.0 .. 4.9
				_, _ = m.Observe("demo", []Observation{{From: "P1", To: "P2", Value: v}})
			}
		}(g)
	}
	base := time.Now()
	for i := 0; i < 5; i++ {
		m.Tick(context.Background(), base.Add(time.Duration(i+1)*time.Second))
	}
	close(stop)
	wg.Wait()
	if _, err := m.Get("demo"); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkControlEpoch measures one full control-plane epoch under
// drift: telemetry ingest, drift detection, rational model rebuild,
// re-solve through the cache, delta computation, and publish to
// one subscriber.
func BenchmarkControlEpoch(b *testing.B) {
	m := NewManager(Config{Epoch: time.Second, DriftThreshold: 1e-9})
	defer m.Close()
	if _, err := m.Create(context.Background(), "bench", demoSpec(), demoPlatform()); err != nil {
		b.Fatal(err)
	}
	sub, err := m.Watch("bench", 0)
	if err != nil {
		b.Fatal(err)
	}
	defer sub.Close()
	<-sub.Events()
	now := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh cost every iteration (1.5 .. 2.5 in 1/512 steps)
		// forces a real re-solve on most ticks rather than a cache
		// hit on a previously seen model.
		v := 1.5 + float64(i%512)/512
		if _, err := m.Observe("bench", []Observation{{From: "P1", To: "P2", Value: v}}); err != nil {
			b.Fatal(err)
		}
		now = now.Add(time.Second)
		if n := m.Tick(context.Background(), now); n == 1 {
			<-sub.Events()
		}
	}
}

func TestManagerCloseIdempotent(t *testing.T) {
	m := NewManager(Config{})
	mustCreate(t, m, "demo")
	sub, err := m.Watch("demo", 0)
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	m.Close()
	// Drain: the v1 epoch, then the channel closes at shutdown.
	for range sub.Events() {
	}
	// A never-started manager closes cleanly too.
	NewManager(Config{}).Close()
}

func TestWatchUnknownDeployment(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	if _, err := m.Watch("nope", 0); !errors.Is(err, ErrUnknownDeployment) {
		t.Fatalf("Watch = %v, want ErrUnknownDeployment", err)
	}
}

// driftTo publishes epochs until the deployment reaches the given
// version, raising the observed edge cost by one each round so every
// tick sees drift (pair with a small Config.DriftThreshold — on a
// rising series the forecast moves with every observation).
func driftTo(t *testing.T, m *Manager, id string, upto uint64) {
	t.Helper()
	now := time.Now()
	snap, err := m.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	for v := snap.Epoch.Version; v < upto; v++ {
		val := float64(v + 1)
		if _, err := m.Observe(id, []Observation{{From: "P1", To: "P2", Value: val}}); err != nil {
			t.Fatal(err)
		}
		// Tick times scale with the version so repeated driftTo calls
		// against one manager keep moving the clock forward past
		// MinResolveInterval.
		tick := now.Add(time.Duration(v) * 24 * time.Hour)
		if n := m.Tick(context.Background(), tick); n != 1 {
			t.Fatalf("drift round v%d published %d", v, n)
		}
	}
}

func TestWatchReplayAndResync(t *testing.T) {
	m := NewManager(Config{DriftThreshold: 1e-6})
	defer m.Close()
	mustCreate(t, m, "demo")
	const cur = historyLen + 3
	driftTo(t, m, "demo", cur) // history now holds v4 .. v(cur)

	// Fresh subscriber: current epoch only.
	fresh, err := m.Watch("demo", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if ep := <-fresh.Events(); ep.Version != cur || ep.Resync {
		t.Fatalf("fresh subscriber got v%d (resync=%v), want clean v%d", ep.Version, ep.Resync, cur)
	}

	// Resume from the version just before the oldest retained one:
	// everything retained replays in order, with deltas intact.
	resume, err := m.Watch("demo", cur-historyLen)
	if err != nil {
		t.Fatal(err)
	}
	defer resume.Close()
	for want := uint64(cur - historyLen + 1); want <= cur; want++ {
		ep := <-resume.Events()
		if ep.Version != want || ep.Resync || ep.Delta == nil {
			t.Fatalf("replay got v%d (resync=%v, delta=%v), want clean v%d with delta", ep.Version, ep.Resync, ep.Delta, want)
		}
	}

	// One version earlier that history is gone — one Resync epoch, no
	// delta, full schedule.
	stale, err := m.Watch("demo", cur-historyLen-1)
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()
	ep := <-stale.Events()
	if ep.Version != cur || !ep.Resync || ep.Delta != nil {
		t.Fatalf("stale resume got v%d (resync=%v, delta=%v), want v%d resync without delta", ep.Version, ep.Resync, ep.Delta, cur)
	}
	if len(ep.Links) != 2 {
		t.Fatalf("resync epoch not self-contained: %+v", ep)
	}

	// Up to date: nothing pending, next epoch arrives live.
	current, err := m.Watch("demo", cur)
	if err != nil {
		t.Fatal(err)
	}
	defer current.Close()
	select {
	case ep := <-current.Events():
		t.Fatalf("up-to-date subscriber got unsolicited v%d", ep.Version)
	default:
	}
	driftTo(t, m, "demo", cur+1)
	if ep := <-current.Events(); ep.Version != cur+1 {
		t.Fatalf("live epoch = v%d, want %d", ep.Version, cur+1)
	}
}

func TestSlowConsumerEviction(t *testing.T) {
	m := NewManager(Config{DriftThreshold: 1e-6})
	defer m.Close()
	mustCreate(t, m, "demo")

	slow, err := m.Watch("demo", 0) // buffer holds v1 + watchBuffer live epochs
	if err != nil {
		t.Fatal(err)
	}
	fast, err := m.Watch("demo", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	<-fast.Events() // fast keeps draining; slow never reads

	const last = watchBuffer + 2
	driftTo(t, m, "demo", last) // the last epoch overflows slow
	for want := uint64(2); want <= last; want++ {
		if ep := <-fast.Events(); ep.Version != want {
			t.Fatalf("fast subscriber got v%d, want %d", ep.Version, want)
		}
	}

	// The slow subscriber was evicted: buffered epochs then close.
	got := 0
	for range slow.Events() {
		got++
	}
	if got != last-1 {
		t.Fatalf("slow subscriber drained %d epochs before eviction, want %d (v1 .. v%d)", got, last-1, last-1)
	}
	snap, _ := m.Get("demo")
	if snap.Watchers != 1 {
		t.Fatalf("watchers after eviction = %d, want 1", snap.Watchers)
	}
	// Close after eviction is a harmless no-op.
	slow.Close()

	// The evicted client resumes with its last seen version and gets
	// the missed epoch.
	back, err := m.Watch("demo", last-1)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if ep := <-back.Events(); ep.Version != last {
		t.Fatalf("resumed subscriber got v%d, want %d", ep.Version, last)
	}
}

func TestWatcherCap(t *testing.T) {
	m := NewManager(Config{MaxWatchers: 2})
	defer m.Close()
	mustCreate(t, m, "demo")
	a, err := m.Watch("demo", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Watch("demo", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Watch("demo", 0); !errors.Is(err, ErrTooManyWatchers) {
		t.Fatalf("third watcher = %v, want ErrTooManyWatchers", err)
	}
	// Closing frees the slot.
	a.Close()
	if _, err := m.Watch("demo", 0); err != nil {
		t.Fatalf("watch after close: %v", err)
	}
}

func TestBackgroundLoopFiresResolves(t *testing.T) {
	if testing.Short() {
		t.Skip("timer-driven")
	}
	m := NewManager(Config{Epoch: 20 * time.Millisecond, MinResolveInterval: time.Nanosecond})
	defer m.Close()
	mustCreate(t, m, "demo")
	if _, err := m.Observe("demo", driftBatch); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		snap, err := m.Get("demo")
		if err != nil {
			t.Fatal(err)
		}
		if snap.Epoch.Version >= 2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("background loop never re-solved the drifted deployment")
}

func TestSnapshotModelState(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	mustCreate(t, m, "demo")
	if _, err := m.Observe("demo", []Observation{{From: "P1", To: "P2", Value: 4}, {Node: "P2", Value: 2.5}}); err != nil {
		t.Fatal(err)
	}
	m.Tick(context.Background(), time.Now().Add(time.Hour))
	snap, err := m.Get("demo")
	if err != nil {
		t.Fatal(err)
	}
	var link *ModelLink
	for i := range snap.Links {
		if snap.Links[i].From == "P1" && snap.Links[i].To == "P2" {
			link = &snap.Links[i]
		}
	}
	if link == nil || link.Nominal != "1" || link.Current != "4" || link.Observations != 1 {
		t.Fatalf("model link = %+v, want nominal 1, current 4, 1 observation", link)
	}
	if link.Predictor == "" || link.Forecast != 4 {
		t.Fatalf("model link forecast state = %+v", link)
	}
	var node *ModelNode
	for i := range snap.Nodes {
		if snap.Nodes[i].Name == "P2" {
			node = &snap.Nodes[i]
		}
	}
	if node == nil || node.Nominal != "2" || node.Current != "5/2" || node.Observations != 1 {
		t.Fatalf("model node = %+v, want nominal 2, current 5/2", node)
	}
}

// TestSharedCacheAcrossDeployments: the manager's LP cache is shared,
// so a second deployment on an already-solved platform publishes its
// first epoch straight from the cache — same fingerprint, zero solve.
func TestSharedCacheAcrossDeployments(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	a := mustCreate(t, m, "a")
	if a.Epoch.CacheHit {
		t.Fatalf("first solve reported a cache hit: %+v", a.Epoch)
	}
	b := mustCreate(t, m, "b")
	if !b.Epoch.CacheHit {
		t.Fatalf("identical platform was not served from the cache: %+v", b.Epoch)
	}
	if b.Epoch.Fingerprint != a.Epoch.Fingerprint || b.Epoch.Throughput != a.Epoch.Throughput {
		t.Fatalf("cached epoch diverged: %+v vs %+v", b.Epoch, a.Epoch)
	}
	if b.Epoch.Version != 1 {
		t.Fatalf("fresh deployment started at version %d", b.Epoch.Version)
	}
}

// bigPlatform is a 4-node star: same names as demoPlatform for P1-P3
// plus a P4 arm, so it shares observable series with the demo star but
// has an incompatible topology (no delta between the two is possible).
func bigPlatform() *platform.Platform {
	p := platform.New()
	p1 := p.AddNode("P1", platform.WInt(1))
	p2 := p.AddNode("P2", platform.WInt(2))
	p3 := p.AddNode("P3", platform.WInt(3))
	p4 := p.AddNode("P4", platform.WInt(4))
	p.AddEdge(p1, p2, rat.FromInt(1))
	p.AddEdge(p1, p3, rat.FromInt(2))
	p.AddEdge(p1, p4, rat.FromInt(3))
	return p
}

// TestReplaceTopologyChangeMarksResync pins the signal delta-tracking
// subscribers rely on: a replace whose new platform cannot be diffed
// against the old one (topology changed) publishes its epoch with
// Delta nil and Resync set, while a same-topology replace keeps a
// normal delta and no resync.
func TestReplaceTopologyChangeMarksResync(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	mustCreate(t, m, "demo")
	sub, err := m.Watch("demo", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	<-sub.Events() // the v1 epoch

	snap, err := m.Create(context.Background(), "demo", demoSpec(), bigPlatform())
	if err != nil {
		t.Fatalf("replace: %v", err)
	}
	if snap.Epoch.Delta != nil || !snap.Epoch.Resync {
		t.Fatalf("topology-changing replace epoch: delta=%+v resync=%v; want nil delta, resync",
			snap.Epoch.Delta, snap.Epoch.Resync)
	}
	select {
	case ep := <-sub.Events():
		if ep.Version != 2 || ep.Delta != nil || !ep.Resync {
			t.Fatalf("subscriber saw v%d delta=%+v resync=%v; want v2, nil delta, resync",
				ep.Version, ep.Delta, ep.Resync)
		}
	case <-time.After(time.Second):
		t.Fatal("subscriber did not receive the replace epoch")
	}

	// Same-topology replace: a delta is possible, so no resync.
	snap, err = m.Create(context.Background(), "demo", demoSpec(), bigPlatform())
	if err != nil {
		t.Fatalf("same-topology replace: %v", err)
	}
	if snap.Epoch.Delta == nil || snap.Epoch.Resync {
		t.Fatalf("same-topology replace epoch: delta=%+v resync=%v; want delta, no resync",
			snap.Epoch.Delta, snap.Epoch.Resync)
	}
}

// gate is one parked solve, waiting for the test's verdict: nil lets
// it run, an error fails it.
type gate chan error

// parkedSolve returns a SolveFunc that parks every solve park selects,
// handing the test its gate first. park sees the platform solved:
// Create solves a nominal one, a drift re-solve an estimate.
func parkedSolve(park func(p *platform.Platform) bool) (SolveFunc, <-chan gate) {
	parked := make(chan gate)
	return func(ctx context.Context, key string, solver steady.Solver, p *platform.Platform) (*steady.Result, bool, error) {
		if park(p) {
			g := make(gate)
			parked <- g
			if err := <-g; err != nil {
				return nil, false, err
			}
		}
		res, err := solver.Solve(ctx, p)
		return res, false, err
	}, parked
}

// nominal holds the fingerprints of the platforms the tests create
// deployments on; the telemetry they post never brings an estimate
// back to one of them.
var nominal = map[string]bool{
	steady.Fingerprint(demoPlatform()): true,
	steady.Fingerprint(bigPlatform()):  true,
}

// creates and resolves are parkedSolve selectors (see there).
func creates(p *platform.Platform) bool  { return nominal[steady.Fingerprint(p)] }
func resolves(p *platform.Platform) bool { return !creates(p) }

// checkShape fails the test unless a snapshot's platform model and its
// epoch describe the same topology.
func checkShape(t *testing.T, snap *Snapshot) {
	t.Helper()
	if snap.Epoch == nil || len(snap.Epoch.Nodes) != len(snap.Nodes) || len(snap.Epoch.Links) != len(snap.Links) {
		t.Errorf("%s: model has %d nodes, %d links; epoch %+v", snap.ID, len(snap.Nodes), len(snap.Links), snap.Epoch)
	}
}

// TestReplaceDuringTickResolve runs both interleavings of a drift
// re-solve and a replace to an incompatible platform. Tick first: the
// replace is parked inside its solve, which holds no lock, so the tick
// — and every reader — goes through, and the replace publishes after
// the drift epoch. Replace first: the tick read the 3-node estimate and
// is parked inside its solve while the replace installs the 4-node
// star; its result describes a retired platform and must be dropped.
// Published, it would size the model to the old topology and the series
// to the new, and the next snapshot or drift scan would index out of
// range.
func TestReplaceDuringTickResolve(t *testing.T) {
	ctx := context.Background()
	setup := func(t *testing.T, park func(*platform.Platform) bool) (*Manager, <-chan gate) {
		var armed atomic.Bool
		solve, parked := parkedSolve(func(p *platform.Platform) bool { return armed.Load() && park(p) })
		m := NewManager(Config{
			Epoch:              time.Hour,
			DriftThreshold:     1e-9,
			MinResolveInterval: time.Nanosecond,
			Solve:              solve,
		})
		t.Cleanup(m.Close)
		mustCreate(t, m, "demo")
		if _, err := m.Observe("demo", driftBatch); err != nil {
			t.Fatal(err)
		}
		armed.Store(true)
		return m, parked
	}
	// After either order: a consistent 4-node deployment whose current
	// epoch is the replace and whose fresh series report no drift.
	settled := func(t *testing.T, m *Manager, version uint64) {
		t.Helper()
		snap, err := m.Get("demo")
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Nodes) != 4 || len(snap.Links) != 3 {
			t.Fatalf("snapshot has %d nodes, %d links; want 4, 3", len(snap.Nodes), len(snap.Links))
		}
		checkShape(t, snap)
		if snap.Epoch.Version != version || snap.Epoch.Reason != "replace" {
			t.Fatalf("current epoch = v%d %q, want v%d replace", snap.Epoch.Version, snap.Epoch.Reason, version)
		}
		if n := m.Tick(ctx, time.Now().Add(2*time.Hour)); n != 0 {
			t.Fatalf("replaced deployment still drifting: %d epochs", n)
		}
	}

	t.Run("tick first", func(t *testing.T) {
		m, parked := setup(t, creates)
		replaced := make(chan error, 1)
		go func() {
			_, err := m.Create(ctx, "demo", demoSpec(), bigPlatform())
			replaced <- err
		}()
		g := <-parked // the replace is inside its solve; the 4-node star is not installed

		// Nothing on the deployment waits for that solve.
		if _, err := m.Observe("demo", driftBatch); err != nil {
			t.Fatal(err)
		}
		if snap, err := m.Get("demo"); err != nil || snap.Epoch.Version != 1 {
			t.Fatalf("Get during the replace's solve = %v, %v; want v1", snap, err)
		}
		sub, err := m.Watch("demo", 0)
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		if ids := m.List(); !slices.Equal(ids, []string{"demo"}) {
			t.Fatalf("List = %v", ids)
		}
		if n := m.Tick(ctx, time.Now().Add(time.Hour)); n != 1 {
			t.Fatalf("Tick during the replace's solve published %d epochs, want 1", n)
		}

		g <- nil
		if err := <-replaced; err != nil {
			t.Fatalf("replace: %v", err)
		}
		for _, want := range []string{"create", "drift", "replace"} {
			if ep := <-sub.Events(); ep.Reason != want {
				t.Fatalf("subscriber saw v%d %q, want %q", ep.Version, ep.Reason, want)
			}
		}
		settled(t, m, 3)
	})

	t.Run("replace first", func(t *testing.T) {
		m, parked := setup(t, resolves)
		ticked := make(chan int, 1)
		go func() { ticked <- m.Tick(ctx, time.Now().Add(time.Hour)) }()
		g := <-parked // the tick holds a 3-node estimate, inside its solve

		if _, err := m.Create(ctx, "demo", demoSpec(), bigPlatform()); err != nil {
			t.Fatalf("replace: %v", err)
		}
		g <- nil
		if n := <-ticked; n != 0 {
			t.Fatalf("the overtaken tick published %d epochs, want 0", n)
		}
		settled(t, m, 2)
	})
}

// TestFailedCreateDoesNotOrphanSibling: two Creates of one new id solve
// side by side and one fails. Whichever finishes first, the failure
// registers and removes nothing, and the success is a deployment Get
// finds and Tick visits. (With a registry entry made before the solve,
// a failing Create used to drop the entry its sibling was about to
// publish on.)
func TestFailedCreateDoesNotOrphanSibling(t *testing.T) {
	for _, failFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("failFirst=%v", failFirst), func(t *testing.T) {
			solve, parked := parkedSolve(creates)
			m := NewManager(Config{Epoch: time.Hour, Solve: solve})
			defer m.Close()

			type outcome struct {
				snap *Snapshot
				err  error
			}
			create := func(out chan<- outcome) {
				snap, err := m.Create(context.Background(), "demo", demoSpec(), demoPlatform())
				out <- outcome{snap, err}
			}
			failing, succeeding := make(chan outcome, 1), make(chan outcome, 1)
			go create(failing)
			gf := <-parked
			go create(succeeding)
			gs := <-parked // both are inside their solves

			fail := func() {
				gf <- errors.New("injected solve failure")
				if o := <-failing; o.err == nil {
					t.Fatal("a Create survived its injected solve failure")
				}
			}
			if failFirst {
				fail()
				if _, err := m.Get("demo"); !errors.Is(err, ErrUnknownDeployment) {
					t.Fatalf("Get after the failed Create = %v, want ErrUnknownDeployment", err)
				}
			}
			gs <- nil
			o := <-succeeding
			if o.err != nil {
				t.Fatalf("succeeding Create: %v", o.err)
			}
			if o.snap.Epoch.Version != 1 || o.snap.Epoch.Reason != "create" {
				t.Fatalf("succeeding Create published v%d %q, want v1 create", o.snap.Epoch.Version, o.snap.Epoch.Reason)
			}
			if !failFirst {
				fail()
			}
			if snap, err := m.Get("demo"); err != nil || snap.Epoch.Version != 1 {
				t.Fatalf("Get after a successful Create = %v, %v; want v1", snap, err)
			}
			// ... and the loop sees it.
			if _, err := m.Observe("demo", driftBatch); err != nil {
				t.Fatal(err)
			}
			if n := m.Tick(context.Background(), time.Now().Add(time.Hour)); n != 1 {
				t.Fatalf("Tick published %d epochs for the surviving deployment, want 1", n)
			}
		})
	}
}

// TestConcurrentReplaceAndTicks races topology-flipping replaces
// against drift-triggered re-solves, telemetry and snapshot reads:
// every replace is held inside its solve — the platform it retires
// still installed — while a tick and a read run, and every snapshot
// must show one topology. (The opposite order, a replace landing
// inside a tick's solve, is TestReplaceDuringTickResolve's.) Run under
// -race.
func TestConcurrentReplaceAndTicks(t *testing.T) {
	var armed atomic.Bool
	solve, parked := parkedSolve(func(p *platform.Platform) bool { return armed.Load() && creates(p) })
	m := NewManager(Config{
		Epoch:              time.Hour,
		MinResolveInterval: time.Nanosecond,
		DriftThreshold:     1e-9,
		Solve:              solve,
	})
	defer m.Close()
	mustCreate(t, m, "demo")
	armed.Store(true)

	const rounds = 150
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(2)
	go func() { // flip the platform between the 3- and 4-node stars
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			p := demoPlatform()
			if i%2 == 0 {
				p = bigPlatform()
			}
			if _, err := m.Create(context.Background(), "demo", demoSpec(), p); err != nil {
				t.Errorf("replace: %v", err)
			}
		}
	}()
	go func() { // telemetry on both shared and big-only series
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			v := 1.25 + float64(i%5)/8
			_, _ = m.Observe("demo", []Observation{{From: "P1", To: "P2", Value: v}})
			_, _ = m.Observe("demo", []Observation{{From: "P1", To: "P3", Value: v + 1}})
			// Only valid while the 4-node star is installed; rejected
			// (whole-batch) otherwise, which is exactly the point: its
			// series exists in one topology and not the other.
			_, _ = m.Observe("demo", []Observation{{From: "P1", To: "P4", Value: v + 2}})
		}
	}()

	base := time.Now()
	for i := 0; i < rounds; i++ {
		g := <-parked // a replace is inside its solve
		m.Tick(context.Background(), base.Add(time.Duration(i+1)*time.Second))
		snap, err := m.Get("demo")
		if err != nil {
			t.Fatalf("Get during churn: %v", err)
		}
		checkShape(t, snap)
		g <- nil
	}
	close(stop)
	wg.Wait()
}

// TestWatchRemoveRace: a subscription must either fail with
// ErrUnknownDeployment or end up on a deployment whose removal closes
// it. A Remove landing between Watch's lookup and its subscriber add
// used to leave the sub on an orphaned deployment — open forever,
// delivering nothing. That window is first opened deterministically,
// then raced.
func TestWatchRemoveRace(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()

	mustCreate(t, m, "demo")
	d, err := m.lookup("demo") // Watch's first half
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("demo"); err != nil {
		t.Fatal(err)
	}
	if sub, err := d.subscribe(m, 0); !errors.Is(err, ErrUnknownDeployment) {
		t.Fatalf("subscribe after Remove = %v, %v; want ErrUnknownDeployment", sub, err)
	}

	var subs []*Subscription
	for i := 0; i < 500; i++ {
		mustCreate(t, m, "demo")
		start := make(chan struct{})
		done := make(chan struct{})
		go func() {
			<-start
			_ = m.Remove("demo")
			close(done)
		}()
		close(start)
		if sub, err := m.Watch("demo", 0); err == nil {
			subs = append(subs, sub)
		} else if !errors.Is(err, ErrUnknownDeployment) {
			t.Fatalf("Watch: %v", err)
		}
		<-done
	}

	// Every subscription Watch returned was registered when its Remove
	// had not yet swept subscribers, so that Remove must have closed it.
	for i, sub := range subs {
		deadline := time.After(2 * time.Second)
	drain:
		for {
			select {
			case _, open := <-sub.Events():
				if !open {
					break drain
				}
			case <-deadline:
				t.Fatalf("subscription %d orphaned: channel never closed", i)
			}
		}
	}
}

// TestPanickingResolveIsSkipped: the epoch loop runs on a goroutine
// nothing guards, so a panic inside one deployment's drift re-solve
// used to end the process. It is now that deployment's failed re-solve:
// counted, its previous epoch still current, the other deployments of
// the same tick re-solved, and its own next tick free to try again.
func TestPanickingResolveIsSkipped(t *testing.T) {
	var calls atomic.Int32
	solve := func(ctx context.Context, key string, solver steady.Solver, p *platform.Platform) (*steady.Result, bool, error) {
		if calls.Add(1) == 3 { // two creates, then a-panics' re-solve
			panic("injected solver panic")
		}
		res, err := solver.Solve(ctx, p)
		return res, false, err
	}
	m := NewManager(Config{Epoch: time.Hour, Solve: solve, Obs: obs.New()})
	defer m.Close()
	for _, id := range []string{"a-panics", "b-fine"} {
		mustCreate(t, m, id)
		if _, err := m.Observe(id, driftBatch); err != nil {
			t.Fatal(err)
		}
	}
	version := func(id string) uint64 {
		t.Helper()
		snap, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		return snap.Epoch.Version
	}

	now := time.Now().Add(2 * time.Hour)
	if n := m.Tick(context.Background(), now); n != 1 {
		t.Fatalf("Tick published %d epochs, want 1 (b-fine; a-panics skipped)", n)
	}
	if a, b := version("a-panics"), version("b-fine"); a != 1 || b != 2 {
		t.Fatalf("versions after the panic: a-panics v%d, b-fine v%d; want v1 and v2", a, b)
	}
	if n := m.metrics.resolveErrs.Value(); n != 1 {
		t.Fatalf("steady_control_resolve_errors_total = %d, want 1", n)
	}
	if n := m.Tick(context.Background(), now.Add(2*time.Hour)); n != 1 {
		t.Fatalf("the tick after the panic published %d epochs, want 1 (a-panics)", n)
	}
	if a := version("a-panics"); a != 2 {
		t.Fatalf("a-panics is on v%d after its retry, want v2", a)
	}
}

// watchLog is what one subscriber of TestManagerConcurrentHistory saw.
type watchLog struct {
	sub    *Subscription
	seen   []*Epoch
	closed bool // the manager closed the stream
}

// drain records the subscription's epochs until the manager closes
// the stream or, once stop is closed and nothing more is published,
// until its buffer is empty.
func (l *watchLog) drain(stop <-chan struct{}) {
	for {
		select {
		case ep, ok := <-l.sub.Events():
			if !l.record(ep, ok) {
				return
			}
		case <-stop:
			for {
				select {
				case ep, ok := <-l.sub.Events():
					if !l.record(ep, ok) {
						return
					}
				default:
					return
				}
			}
		}
	}
}

func (l *watchLog) record(ep *Epoch, ok bool) bool {
	if !ok {
		l.closed = true
		return false
	}
	l.seen = append(l.seen, ep)
	return true
}

// TestManagerConcurrentHistory runs a seeded schedule of every Manager
// operation from several goroutines over two ids — creates, replaces
// that flip between the 3- and 4-node stars, telemetry, ticks on a
// rising clock, watches drained to the end, removes, reads — and then
// checks what must hold after any interleaving: every listed id answers
// Get; every deployment's base, model and epoch agree in shape; every
// subscriber saw versions rise by one, or by more only onto a resync
// epoch; and no subscription on an unregistered deployment is left
// open. Run under -race.
func TestManagerConcurrentHistory(t *testing.T) {
	m := NewManager(Config{Epoch: time.Hour, MinResolveInterval: time.Nanosecond, DriftThreshold: 1e-9})
	defer m.Close()
	ctx := context.Background()
	ids := []string{"a", "b"}
	start := time.Now()
	var clock atomic.Int64
	expect := func(err error, allowed ...error) {
		for _, a := range allowed {
			if errors.Is(err, a) {
				return
			}
		}
		if err != nil {
			t.Errorf("unexpected error: %v", err)
		}
	}

	var (
		mu          sync.Mutex
		logs        []*watchLog
		ops, drains sync.WaitGroup
	)
	stop := make(chan struct{})
	const workers, steps = 4, 100
	for w := 0; w < workers; w++ {
		ops.Add(1)
		go func(rng *rand.Rand) {
			defer ops.Done()
			for i := 0; i < steps; i++ {
				id := ids[rng.Intn(len(ids))]
				switch rng.Intn(10) {
				case 0, 1:
					p := demoPlatform()
					if rng.Intn(2) == 0 {
						p = bigPlatform()
					}
					_, err := m.Create(ctx, id, demoSpec(), p)
					expect(err)
				case 2, 3: // P1>P4 exists on the 4-node star only
					to := []string{"P2", "P3", "P4"}[rng.Intn(3)]
					_, err := m.Observe(id, []Observation{{From: "P1", To: to, Value: 1 + float64(rng.Intn(8))/4}})
					expect(err, ErrUnknownDeployment, ErrBadObservation)
				case 4, 5:
					m.Tick(ctx, start.Add(time.Duration(clock.Add(1))*time.Second))
				case 6:
					sub, err := m.Watch(id, uint64(rng.Intn(3)))
					expect(err, ErrUnknownDeployment)
					if err == nil {
						l := &watchLog{sub: sub}
						mu.Lock()
						logs = append(logs, l)
						mu.Unlock()
						drains.Add(1)
						go func() {
							defer drains.Done()
							l.drain(stop)
						}()
					}
				case 7:
					expect(m.Remove(id), ErrUnknownDeployment)
				case 8:
					snap, err := m.Get(id)
					expect(err, ErrUnknownDeployment)
					if err == nil {
						checkShape(t, snap)
					}
				case 9:
					m.List()
				}
			}
		}(rand.New(rand.NewSource(int64(w) + 1)))
	}
	ops.Wait()
	close(stop)
	drains.Wait()

	for _, id := range m.List() {
		snap, err := m.Get(id)
		if err != nil {
			t.Fatalf("listed deployment %q: %v", id, err)
		}
		checkShape(t, snap)
		d, _ := m.lookup(id)
		d.mu.Lock()
		base, model := d.est.base, d.est.model
		if model.NumNodes() != base.NumNodes() || model.NumEdges() != base.NumEdges() {
			t.Errorf("%s: base has %d nodes, %d edges; model %d, %d",
				id, base.NumNodes(), base.NumEdges(), model.NumNodes(), model.NumEdges())
		}
		d.mu.Unlock()
	}
	for i, l := range logs {
		for j := 1; j < len(l.seen); j++ {
			prev, ep := l.seen[j-1], l.seen[j]
			if ep.Version <= prev.Version || (ep.Version != prev.Version+1 && !ep.Resync) {
				t.Errorf("subscriber %d on %q saw v%d (resync=%v) after v%d", i, l.sub.d.id, ep.Version, ep.Resync, prev.Version)
			}
		}
		if cur, err := m.lookup(l.sub.d.id); !l.closed && (err != nil || cur != l.sub.d) {
			t.Errorf("subscriber %d left open on an unregistered deployment %q", i, l.sub.d.id)
		}
	}
}
