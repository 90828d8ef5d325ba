package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/pkg/steady"
	"repro/pkg/steady/lp"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

// facadeLP names, for every problem pkg/steady registers, the builder
// of the LP behind it. A problem registered without an entry fails
// TestFacadeResultsAreCertifiedOptima: being registered is what puts a
// problem under the certificate.
var facadeLP = map[string]func(p *platform.Platform, root int, targets []int, pm core.PortModel) (*lp.Model, error){
	"masterslave": func(p *platform.Platform, root int, _ []int, pm core.PortModel) (*lp.Model, error) {
		return core.MasterSlaveModel(p, root, pm)
	},
	"scatter": func(p *platform.Platform, root int, targets []int, pm core.PortModel) (*lp.Model, error) {
		return core.DistributionLP(p, root, targets, pm, false)
	},
	"multicast-sum": func(p *platform.Platform, root int, targets []int, pm core.PortModel) (*lp.Model, error) {
		return core.DistributionLP(p, root, targets, pm, false)
	},
	"multicast": func(p *platform.Platform, root int, targets []int, pm core.PortModel) (*lp.Model, error) {
		return core.DistributionLP(p, root, targets, pm, true)
	},
	"multicast-trees": func(p *platform.Platform, root int, targets []int, _ core.PortModel) (*lp.Model, error) {
		return core.TreePackingLP(p, root, targets)
	},
	"broadcast": func(p *platform.Platform, root int, _ []int, pm core.PortModel) (*lp.Model, error) {
		return core.DistributionLP(p, root, others(p, root), pm, true)
	},
	"reduce": func(p *platform.Platform, root int, _ []int, pm core.PortModel) (*lp.Model, error) {
		return core.DistributionLP(p.Reverse(), root, others(p, root), pm, true)
	},
}

// others lists every node but root (the platforms below are strongly
// connected, so that is what a broadcast reaches).
func others(p *platform.Platform, root int) []int {
	var out []int
	for i := 0; i < p.NumNodes(); i++ {
		if i != root {
			out = append(out, i)
		}
	}
	return out
}

// TestFacadeResultsAreCertifiedOptima: what pkg/steady serves is the
// optimum of the LP the paper states for the problem, proven by duality.
// Every registered problem is solved through the facade on seeded
// random platforms and Figure 1; the LP is then
// built here, independently of the solve, solved to recover a
// primal-dual pair, and judged by lp.Model.CheckOptimal. A facade wired
// to the wrong builder, or a throughput that is not its LP's optimum,
// fails.
func TestFacadeResultsAreCertifiedOptima(t *testing.T) {
	ctx := context.Background()
	plats := []*platform.Platform{platform.Figure1()}
	for seed := int64(100); seed < 104; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(4)
		plats = append(plats, platform.RandomConnected(rng, n, n, 5, 5, 0.15))
	}
	for pi, p := range plats {
		targets := []int{1, 2, 3}
		for _, problem := range steady.Problems() {
			build, ok := facadeLP[problem]
			if !ok {
				t.Fatalf("problem %q is registered but facadeLP names no LP for it", problem)
			}
			info := steady.Describe(problem)
			for _, pm := range []core.PortModel{core.SendAndReceive, core.SendOrReceive} {
				if !slices.Contains(info.Models, pm.String()) {
					continue
				}
				spec := steady.Spec{Problem: problem, Root: p.Name(0), Model: pm}
				if info.NeedsTargets {
					spec.Targets = []string{p.Name(1), p.Name(2), p.Name(3)}
				}
				solver, err := steady.New(spec)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("platform %d, %s/%s", pi, problem, pm)
				res, err := solver.Solve(ctx, p)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				m, err := build(p, 0, targets, pm)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				sol, err := m.Solve()
				if err != nil || sol.Status != lp.Optimal {
					t.Fatalf("%s: solve: %v %v", name, sol, err)
				}
				if !sol.Objective.Equal(res.Throughput) {
					t.Fatalf("%s: facade says %v, the LP's optimum is %v", name, res.Throughput, sol.Objective)
				}
				core.Certify(t, name, m, sol)
			}
		}
	}
}

// TestRegisteredLPsCrashStart: every LP the facade serves has right-hand
// side 0 on all of its equality rows, so the origin is feasible and its
// cold solve starts phase 2 from a crash basis, taking no phase-1 pivot
// (lp's TestCrashStart holds the walks to that). At n = 8, 24 and 48,
// built here by the registered problems' own builders, each LP is held
// to the premise — the origin passes CheckFeasible — and solved as
// steadyd solves it: the float walk's basis is certified without the
// exact fallback, and the optimum passes the certificate. Tree packing
// enumerates arborescences and refuses a platform of more than 63
// edges, so its platforms carry 6 links beyond the ring instead of n.
func TestRegisteredLPsCrashStart(t *testing.T) {
	for _, n := range []int{8, 24, 48} {
		for _, problem := range steady.Problems() {
			t.Run(fmt.Sprintf("%s/n=%d", problem, n), func(t *testing.T) {
				extra := n
				if problem == "multicast-trees" {
					extra = 6
				}
				p := platform.RandomConnected(rand.New(rand.NewSource(int64(n))), n, extra, 5, 5, 0.15)
				m, err := facadeLP[problem](p, 0, []int{1, 2, 3}, core.SendAndReceive)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.CheckFeasible(make([]rat.Rat, m.NumVars())); err != nil {
					t.Fatalf("the origin is not feasible: %v", err)
				}
				sol, err := m.Solve()
				if err != nil || sol.Status != lp.Optimal {
					t.Fatalf("%v %v", sol, err)
				}
				if sol.Info.CertifiedCold {
					t.Fatalf("the float walk's basis was not certified: %+v", sol.Info)
				}
				core.Certify(t, "served", m, sol)
			})
		}
	}
}
