package steady_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/corpus"
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

// TestFloatFirstParityAllSolvers is the float-first property test of
// the served path: on 50 generated platforms × every registered solver,
// and on the corpus's served-size slice of the cold_solve family, the float search
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
	type namedCase struct {
		name string
		p    *platform.Platform
		spec steady.Spec
	}
	var cases []namedCase
	for pi, p := range plats {
		for _, spec := range paritySpecs(t, p) {
			cases = append(cases, namedCase{fmt.Sprintf("platform %d (%d nodes), spec %+v", pi, p.NumNodes(), spec), p, spec})
		}
	}
	for _, c := range corpus.Served(testing.Short()) {
		cases = append(cases, namedCase{c.Name, c.Platform, steady.Spec{Problem: c.Problem, Targets: c.Targets, Model: c.Model}})
	}
	for _, c := range cases {
		solver, err := steady.New(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		res, err := solver.Solve(ctx, c.p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.CertifiedCold {
			t.Fatalf("%s: the float basis was not certified as installed", c.name)
		}
	}
	t.Logf("solves=%d", len(cases))
}
