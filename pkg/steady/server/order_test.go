package server_test

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"repro/pkg/steady"
	"repro/pkg/steady/cluster"
	"repro/pkg/steady/control"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
	"repro/pkg/steady/server"
)

// reweighted is one topology with its weights and costs re-drawn in 1–5
// per member, from the rng that drew the topology: a family whose LPs
// share one shape and often have more than one optimal vertex.
func reweighted(seed int64, n, members int) []*platform.Platform {
	rng := rand.New(rand.NewSource(seed))
	base := platform.RandomConnected(rng, n, n, 5, 5, 0.15)
	out := make([]*platform.Platform, members)
	for k := range out {
		q := platform.New()
		for i := 0; i < base.NumNodes(); i++ {
			w := base.Weight(i)
			if !w.Inf {
				w = platform.WInt(1 + rng.Int63n(5))
			}
			q.AddNode(base.Name(i), w)
		}
		for _, ed := range base.Edges() {
			q.AddEdge(ed.From, ed.To, rat.FromInt(1+rng.Int63n(5)))
		}
		out[k] = q
	}
	return out
}

// observationsOf is telemetry that measures every cost of p exactly.
func observationsOf(p *platform.Platform) []control.Observation {
	var obs []control.Observation
	for i := 0; i < p.NumNodes(); i++ {
		if w := p.Weight(i); !w.Inf {
			obs = append(obs, control.Observation{Node: p.Name(i), Value: w.Val.Float64()})
		}
	}
	for _, ed := range p.Edges() {
		obs = append(obs, control.Observation{From: p.Name(ed.From), To: p.Name(ed.To), Value: ed.C.Float64()})
	}
	return obs
}

// TestReplyIndependentOfTrafficOrder: a /v1/solve reply does not depend
// on what the service solved before it. A re-weighted family of
// master-slave, scatter and broadcast requests is served twice: first in
// order, each member by the peer that owns it; then, on a second cluster
// (so nothing of the first is cached), in reverse order, after a control
// plane epoch of a deployment created on its neighbour has solved every
// member but the last on the peer that will answer it, through a forward
// or, with the owner down, a failover. Every reply is byte-identical to the first
// order's outside elapsed_us and cache_hit.
func TestReplyIndependentOfTrafficOrder(t *testing.T) {
	const members = 4
	cases := []server.SolveRequest{
		{Problem: "masterslave", Root: "N0"},
		{Problem: "scatter", Root: "N0", Targets: []string{"N4", "N8", "N12"}},
		{Problem: "broadcast", Root: "N0"},
	}
	families := make([][]*platform.Platform, len(cases))
	for c := range cases {
		families[c] = reweighted(int64(11+c), 16, members)
	}
	request := func(c, m int) server.SolveRequest {
		req := cases[c]
		req.Platform = platformJSON(t, families[c][m])
		return req
	}
	serve := func(t *testing.T, url string, req server.SolveRequest) (string, *http.Response) {
		t.Helper()
		resp := postJSON(t, url+"/v1/solve", req)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", req.Problem, resp.StatusCode, body)
		}
		return canonSolve(t, body), resp
	}
	ownerOf := func(tc *testCluster, c, m int) int {
		spec := steady.Spec{Problem: cases[c].Problem, Root: cases[c].Root, Targets: cases[c].Targets}
		return tc.ownerOf(t, families[c][m], solverName(t, spec))
	}
	epochs := control.Config{Epoch: time.Hour}
	mutate := func(_ int, _ *cluster.Config, scfg *server.Config) { scfg.Control = epochs }

	// First order: member by member, each at its owner.
	first := newTestCluster(t, 2, mutate)
	want := make([][]string, len(cases))
	for c := range cases {
		for m := range members {
			reply, _ := serve(t, first.urls[ownerOf(first, c, m)], request(c, m))
			want[c] = append(want[c], reply)
		}
	}

	// Second order, on a fresh cluster. Peer 1 answers every request:
	// its control plane first solves each member m < members-1 in a
	// drift epoch of a deployment created on member m+1, whose telemetry
	// measures member m exactly.
	second := newTestCluster(t, 2, mutate)
	front := second.servers[1].Control()
	clock := time.Now()
	for c := range cases {
		spec := steady.Spec{Problem: cases[c].Problem, Root: cases[c].Root, Targets: cases[c].Targets}
		for m := members - 2; m >= 0; m-- {
			id := "order-" + cases[c].Problem
			if _, err := front.Create(context.Background(), id, spec, families[c][m+1]); err != nil {
				t.Fatal(err)
			}
			if _, err := front.Observe(id, observationsOf(families[c][m])); err != nil {
				t.Fatal(err)
			}
			clock = clock.Add(24 * time.Hour)
			if n := front.Tick(context.Background(), clock); n != 1 {
				t.Fatalf("%s member %d: the drift tick published %d epochs", cases[c].Problem, m, n)
			}
			snap, err := front.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Epoch.Fingerprint != steady.Fingerprint(families[c][m]) {
				t.Fatalf("%s member %d: the epoch solved another platform", cases[c].Problem, m)
			}
			if err := front.Remove(id); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Members peer 1 owns go to peer 0, which forwards them; the others
	// wait until peer 0 is down and peer 1 answers them itself.
	var failover [][2]int
	for c := range cases {
		for m := members - 1; m >= 0; m-- {
			if ownerOf(second, c, m) == 0 {
				failover = append(failover, [2]int{c, m})
				continue
			}
			reply, resp := serve(t, second.urls[0], request(c, m))
			if resp.Header.Get(cluster.ServedByHeader) != second.urls[1] {
				t.Fatalf("%s member %d was not forwarded to its owner", cases[c].Problem, m)
			}
			if reply != want[c][m] {
				t.Errorf("%s member %d, forwarded after the epochs:\n%s\nfirst order:\n%s", cases[c].Problem, m, reply, want[c][m])
			}
		}
	}
	second.stop(0)
	for _, k := range failover {
		c, m := k[0], k[1]
		reply, resp := serve(t, second.urls[1], request(c, m))
		if resp.Header.Get(cluster.ServedByHeader) != "" {
			t.Fatalf("%s member %d: served by %s, want a local solve", cases[c].Problem, m, resp.Header.Get(cluster.ServedByHeader))
		}
		if reply != want[c][m] {
			t.Errorf("%s member %d, failed over after the epochs:\n%s\nfirst order:\n%s", cases[c].Problem, m, reply, want[c][m])
		}
	}
	t.Logf("%d forwarded, %d failed over", len(cases)*members-len(failover), len(failover))
}
