package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"repro/pkg/steady"
	"repro/pkg/steady/control"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/server"
)

// problem is the one steady-state problem every workload solves: the
// paper's §3.1 master-slave LP, rooted at the platform's first node.
const problem = "masterslave"

// Input streams. Every generated platform is a pure function of
// (seed, stream, index), so any index can be produced on its own and a
// repetition's inputs do not depend on how many ran before it.
const (
	streamHot = iota + 1
	streamColdWarmup
	streamCold
	streamColdTraced
	streamControl
	streamRegimes
)

// mix folds (seed, stream, index) into one generator seed with the
// splitmix64 finalizer, so neighbouring indices and seeds give
// unrelated streams.
func mix(seed int64, stream, index int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)<<48 + uint64(index)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// platformAt draws platform number index of a stream: the same family
// cmd/steadybench uses (random ring plus n extra links, weights and
// costs in [1,5], 15 % forwarder-only nodes).
func platformAt(seed int64, stream, index, n int) *platform.Platform {
	rng := rand.New(rand.NewSource(mix(seed, stream, index)))
	return platform.RandomConnected(rng, n, n, 5, 5, 0.15)
}

func platformJSON(p *platform.Platform) []byte {
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		panic(err) // a bytes.Buffer cannot fail and a generated platform always encodes
	}
	return bytes.TrimSpace(buf.Bytes())
}

// solveBody is the POST /v1/solve body for p.
func solveBody(p *platform.Platform) []byte {
	b, err := json.Marshal(server.SolveRequest{Problem: problem, Platform: platformJSON(p)})
	if err != nil {
		panic(err)
	}
	return b
}

// expected is the oracle's answer for one platform: what an in-process
// certified solve returns.
type expected struct {
	fingerprint string
	throughput  string
}

func solveInProcess(ctx context.Context, p *platform.Platform) (expected, error) {
	solver, err := steady.New(steady.Spec{Problem: problem})
	if err != nil {
		return expected{}, err
	}
	res, err := solver.Solve(ctx, p, steady.FloatFirst())
	if err != nil {
		return expected{}, err
	}
	return expected{fingerprint: res.Fingerprint, throughput: res.Throughput.String()}, nil
}

// regimeGen produces the telemetry regimes of control_drift for one
// nominal platform: regime r multiplies every edge's cost by an
// independently drawn k/8, k in 5..13. A draw is rejected unless it is
// new within the run and moves at least one edge by 15 % or more
// against the previous regime, so every regime trips the daemon's 10 %
// drift threshold and no re-solve can be answered from the LP cache.
type regimeGen struct {
	base *platform.Platform
	rng  *rand.Rand
	prev []int
	seen map[string]bool
}

func newRegimeGen(seed int64, base *platform.Platform) *regimeGen {
	prev := make([]int, base.NumEdges())
	for i := range prev {
		prev[i] = 8 // nominal costs
	}
	return &regimeGen{
		base: base,
		rng:  rand.New(rand.NewSource(mix(seed, streamRegimes, 0))),
		prev: prev,
		seen: map[string]bool{fmt.Sprint(prev): true},
	}
}

// next returns the next regime's multipliers, in eighths, per edge.
func (g *regimeGen) next() []int {
	for {
		k := make([]int, len(g.prev))
		moved := false
		for e := range k {
			k[e] = 5 + g.rng.Intn(9)
			if d := float64(k[e]-g.prev[e]) / float64(g.prev[e]); d >= 0.15 || d <= -0.15 {
				moved = true
			}
		}
		key := fmt.Sprint(k)
		if !moved || g.seen[key] {
			continue
		}
		g.seen[key] = true
		g.prev = k
		return k
	}
}

// observations is one batch under regime k: an observation of every
// computing node at its nominal cost and of every directed edge at its
// nominal cost times k/8.
func observations(base *platform.Platform, k []int) []control.Observation {
	var obs []control.Observation
	for i := 0; i < base.NumNodes(); i++ {
		if w := base.Weight(i); !w.Inf {
			obs = append(obs, control.Observation{Node: base.Name(i), Value: w.Val.Float64()})
		}
	}
	for e, ed := range base.Edges() {
		obs = append(obs, control.Observation{
			From: base.Name(ed.From), To: base.Name(ed.To),
			Value: ed.C.Float64() * float64(k[e]) / 8,
		})
	}
	return obs
}

// telemetryBody is the POST .../telemetry body of one batch.
func telemetryBody(base *platform.Platform, k []int) []byte {
	b, err := json.Marshal(server.TelemetryRequest{Observations: observations(base, k)})
	if err != nil {
		panic(err)
	}
	return b
}

// deploymentBody is the POST /v1/deployments body registering p.
func deploymentBody(id string, p *platform.Platform) []byte {
	b, err := json.Marshal(server.DeploymentRequest{
		ID:           id,
		SolveRequest: server.SolveRequest{Problem: problem, Platform: platformJSON(p)},
	})
	if err != nil {
		panic(err)
	}
	return b
}

// modelPlatform rebuilds the platform a deployment's current epoch was
// solved on from the snapshot's model: same names and edge order, the
// exact "current" values.
func modelPlatform(snap *control.Snapshot) (*platform.Platform, error) {
	var doc strings.Builder
	doc.WriteString(`{"nodes":[`)
	for i, n := range snap.Nodes {
		if i > 0 {
			doc.WriteByte(',')
		}
		fmt.Fprintf(&doc, `{"name":%q,"w":%q}`, n.Name, n.Current)
	}
	doc.WriteString(`],"edges":[`)
	for i, l := range snap.Links {
		if i > 0 {
			doc.WriteByte(',')
		}
		fmt.Fprintf(&doc, `{"from":%q,"to":%q,"c":%q}`, l.From, l.To, l.Current)
	}
	doc.WriteString(`]}`)
	return platform.ReadJSON(strings.NewReader(doc.String()))
}
