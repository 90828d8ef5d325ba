package server_test

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/pkg/steady"
	"repro/pkg/steady/control"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
	"repro/pkg/steady/server"
)

// drifting is one topology whose weights and costs drift around their
// nominal values: each member multiplies every nominal weight and cost
// by its own factor k/64, k in 58..70 (within 10 %). The factors are
// dyadic with a small denominator, so telemetry in float64 measures a
// member exactly and the estimate it yields is that member, fingerprint
// for fingerprint.
func drifting(seed int64, n, members int) []*platform.Platform {
	rng := rand.New(rand.NewSource(seed))
	base := platform.RandomConnected(rng, n, n, 5, 5, 0.15)
	out := make([]*platform.Platform, members)
	factor := func() rat.Rat { return rat.New(int64(58+rng.Intn(13)), 64) }
	for k := range out {
		q := platform.New()
		for i := 0; i < base.NumNodes(); i++ {
			w := base.Weight(i)
			if !w.Inf {
				w = platform.W(w.Val.Mul(factor()))
			}
			q.AddNode(base.Name(i), w)
		}
		for _, ed := range base.Edges() {
			q.AddEdge(ed.From, ed.To, ed.C.Mul(factor()))
		}
		out[k] = q
	}
	return out
}

// TestEpochIsAFunctionOfItsEstimate: a §5.5 re-plan is a solve of its
// estimate and nothing else. Drifting master-slave, scatter and
// broadcast deployments at n=16 run through two managers with different
// epoch histories: one walks the members forward (a deployment created
// on member 0 drifts to 1, one created on 1 drifts to 2, …), the other
// backward, so every inner member is a drift epoch of both, each after
// another create. Every epoch either publishes must be the reply of a
// /v1/solve of its estimate on a server that runs no control plane: the
// same fingerprint, throughput and rates, byte for byte.
func TestEpochIsAFunctionOfItsEstimate(t *testing.T) {
	const members = 4
	cases := []steady.Spec{
		{Problem: "masterslave", Root: "N0"},
		{Problem: "scatter", Root: "N0", Targets: []string{"N4", "N8", "N12"}},
		{Problem: "broadcast", Root: "N0"},
	}
	ctx := context.Background()
	cfg := server.Config{Control: control.Config{Epoch: time.Hour, DriftThreshold: 0.01}}
	for c, spec := range cases {
		t.Run(spec.Problem, func(t *testing.T) {
			family := drifting(int64(21+c), 16, members)
			cold := newTestServer(t, server.Config{})
			want := make([]server.SolveResponse, members)
			for m, p := range family {
				want[m] = decodeSolve(t, postJSON(t, cold.URL+"/v1/solve", server.SolveRequest{
					Problem: spec.Problem, Root: spec.Root, Targets: spec.Targets, Platform: platformJSON(t, p),
				}))
			}
			check := func(t *testing.T, order string, m int, ep *control.Epoch) {
				t.Helper()
				w := want[m]
				if ep.Fingerprint != w.Fingerprint || ep.Throughput != w.Throughput ||
					!slices.Equal(ep.Nodes, w.Nodes) || !slices.Equal(ep.Links, w.Links) {
					t.Errorf("%s, member %d: %s epoch of %.8s at %s differs from a cold solve of member %d, %.8s at %s",
						order, m, ep.Reason, ep.Fingerprint, ep.Throughput, m, w.Fingerprint, w.Throughput)
				}
			}

			forward, backward := make([]int, members), make([]int, members)
			for m := range forward {
				forward[m], backward[m] = m, members-1-m
			}
			for _, walk := range []struct {
				name  string
				order []int
			}{{"forward", forward}, {"backward", backward}} {
				srv, _ := newControlServer(t, cfg)
				m := srv.Control()
				clock := time.Now()
				for i := 0; i+1 < len(walk.order); i++ {
					from, to := walk.order[i], walk.order[i+1]
					if i > 0 {
						if err := m.Remove("drift"); err != nil {
							t.Fatal(err)
						}
					}
					snap, err := m.Create(ctx, "drift", spec, family[from])
					if err != nil {
						t.Fatal(err)
					}
					check(t, walk.name, from, snap.Epoch)
					if _, err := m.Observe("drift", observationsOf(family[to])); err != nil {
						t.Fatal(err)
					}
					clock = clock.Add(24 * time.Hour)
					if n := m.Tick(ctx, clock); n != 1 {
						t.Fatalf("%s, member %d: the drift tick published %d epochs", walk.name, to, n)
					}
					if snap, err = m.Get("drift"); err != nil {
						t.Fatal(err)
					}
					check(t, walk.name, to, snap.Epoch)
				}
			}
		})
	}
}
