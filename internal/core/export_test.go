package core

import (
	"testing"

	"repro/pkg/steady/lp"
	"repro/pkg/steady/platform"
)

// Certify proves an Optimal sol of m optimal by its duals:
// lp.Model.CheckOptimal is arithmetic over m's own rows and shares
// nothing with the engine that found sol. Other statuses pass through.
func Certify(t *testing.T, name string, m *lp.Model, sol *lp.Solution) {
	t.Helper()
	if sol.Status != lp.Optimal {
		return
	}
	y, err := m.Duals(sol)
	if err == nil {
		err = m.CheckOptimal(sol.Values(), y)
	}
	if err != nil {
		t.Fatalf("%s: not a certified optimum: %v", name, err)
	}
}

// DistributionLP and TreePackingLP hand the external tests of this
// directory (package core_test, which may import pkg/steady where this
// package may not) the unsolved LPs behind the facade's problems;
// MasterSlaveModel is already exported.

func DistributionLP(p *platform.Platform, source int, targets []int, pm PortModel, maxOperator bool) (*lp.Model, error) {
	dm, err := buildDistributionModel(p, scatterFlows(source, targets), pm, maxOperator, nil, nil)
	if err != nil {
		return nil, err
	}
	return dm.m, nil
}

func TreePackingLP(p *platform.Platform, source int, targets []int) (*lp.Model, error) {
	trees, err := EnumerateMulticastTrees(p, source, targets, nil)
	if err != nil {
		return nil, err
	}
	m, _ := buildTreePackingModel(p, trees, nil)
	return m, nil
}
