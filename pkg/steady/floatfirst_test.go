package steady_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/pkg/steady"
	"repro/pkg/steady/platform"
)

// parityPlatforms builds the property-test corpus: ≥50 platforms
// drawn from every generator family (tree, grid, ring, clique, random
// connected) under mixed seeds, sized so that even the exponential
// tree-packing solver stays fast.
func parityPlatforms() []*platform.Platform {
	var out []*platform.Platform
	for seed := int64(1); seed <= 10; seed++ {
		out = append(out,
			platform.Tree(rand.New(rand.NewSource(seed)), 2, 2, 5, 5),
			platform.Grid(rand.New(rand.NewSource(seed)), 3, 3, 5, 5),
			platform.Ring(rand.New(rand.NewSource(seed)), 8, 5, 5),
			platform.Clique(rand.New(rand.NewSource(seed)), 5, 5, 5),
			platform.RandomConnected(rand.New(rand.NewSource(seed)), 10, 8, 5, 5, 0.2),
		)
	}
	return out
}

// paritySpecs renders every registered problem as a concrete spec for
// the given platform (targets resolved to real node names), plus the
// send-or-receive variants of the two problems that support them.
func paritySpecs(t *testing.T, p *platform.Platform) []steady.Spec {
	t.Helper()
	targets := []string{p.Name(1), p.Name(p.NumNodes() - 1)}
	specs := []steady.Spec{}
	for _, problem := range steady.Problems() {
		spec := steady.Spec{Problem: problem}
		switch problem {
		case "scatter", "multicast", "multicast-sum", "multicast-trees":
			spec.Targets = targets
		}
		specs = append(specs, spec)
	}
	specs = append(specs,
		steady.Spec{Problem: "masterslave", Model: steady.SendOrReceive},
		steady.Spec{Problem: "scatter", Targets: targets, Model: steady.SendOrReceive},
	)
	return specs
}

// servedPlatforms is the served-size slice of the property test: the
// RandomConnected family bench/'s cold_solve draws from, at n = 24 and
// 48, with as many and twice as many extra links as nodes, costs up to
// 5 and up to 97, two seeds each. -short keeps the n = 24 rows.
func servedPlatforms(short bool) []*platform.Platform {
	var out []*platform.Platform
	for _, n := range []int{24, 48} {
		if short && n > 24 {
			continue
		}
		for _, extra := range []int{n, 2 * n} {
			for _, maxC := range []int64{5, 97} {
				for seed := int64(1); seed <= 2; seed++ {
					out = append(out, platform.RandomConnected(rand.New(rand.NewSource(seed)), n, extra, 5, maxC, 0.15))
				}
			}
		}
	}
	return out
}

// servedSpecs are the problems the served-size slice solves on p:
// master-slave under both port models, and scatter and multicast-sum
// to three targets; broadcast and reduce, whose LPs grow as targets ×
// edges, only at n = 24.
func servedSpecs(p *platform.Platform) []steady.Spec {
	n := p.NumNodes()
	targets := []string{p.Name(1), p.Name(n / 2), p.Name(n - 1)}
	specs := []steady.Spec{
		{Problem: "masterslave"},
		{Problem: "masterslave", Model: steady.SendOrReceive},
		{Problem: "scatter", Targets: targets},
		{Problem: "multicast-sum", Targets: targets},
	}
	if n <= 24 {
		specs = append(specs, steady.Spec{Problem: "broadcast"}, steady.Spec{Problem: "reduce"})
	}
	return specs
}

// TestFloatFirstParityAllSolvers is the float-first property test of
// the served path: on 50 generated platforms × every registered solver,
// and on a served-size slice of the cold_solve family, the float search
// ends on an exact optimum as installed — the certificate accepts it
// and never sends the solve to the exact walk, which is what a basis
// short of exactly optimal costs. The float walk makes the exact walk's
// pivoting decisions, so it ends on the exact walk's own terminal
// basis; byte-identity with that walk is pkg/steady/lp's
// TestFloatFirstParityMasterSlave, and every certified value here is
// pinned by the goldens.
func TestFloatFirstParityAllSolvers(t *testing.T) {
	ctx := context.Background()
	plats := parityPlatforms()
	if len(plats) < 50 {
		t.Fatalf("corpus has %d platforms, want >= 50", len(plats))
	}
	type platformSpecs struct {
		p     *platform.Platform
		specs []steady.Spec
	}
	var cases []platformSpecs
	for _, p := range plats {
		cases = append(cases, platformSpecs{p, paritySpecs(t, p)})
	}
	for _, p := range servedPlatforms(testing.Short()) {
		cases = append(cases, platformSpecs{p, servedSpecs(p)})
	}
	solves := 0
	for pi, c := range cases {
		for _, spec := range c.specs {
			name := fmt.Sprintf("platform %d (%d nodes), spec %+v", pi, c.p.NumNodes(), spec)
			solver, err := steady.New(spec)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			res, err := solver.Solve(ctx, c.p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			solves++
			if res.CertifiedCold {
				t.Fatalf("%s: the float basis was not certified as installed", name)
			}
		}
	}
	t.Logf("platforms=%d solves=%d", len(cases), solves)
}
