package lp_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/pkg/steady/lp"
	"repro/pkg/steady/platform"
)

// TestMasterSlaveNucleus: over the 64 platforms BenchmarkLPColdMiss48
// solves (the shape of bench/'s cold_solve workload), the optimal basis
// of the §3.1 LP is all but triangular — the columns the install has to
// FTRAN stay under a tenth of those it stores a factor for.
func TestMasterSlaveNucleus(t *testing.T) {
	nucleus, factors, worst := 0, 0, 0
	hist := map[int]int{}
	for i := 0; i < 64; i++ {
		p := platform.RandomConnected(rand.New(rand.NewSource(int64(4800+i))), 48, 48, 5, 5, 0.15)
		m, err := core.MasterSlaveModel(p, 0, core.SendAndReceive)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := m.Solve()
		if err != nil || sol.Status != lp.Optimal {
			t.Fatalf("platform %d: %v %v", i, sol, err)
		}
		n, f, ok := lp.InstallNucleus(m, sol)
		if !ok {
			t.Fatalf("platform %d: own optimal basis does not install", i)
		}
		nucleus, factors, worst = nucleus+n, factors+f, max(worst, n)
		hist[n]++
	}
	t.Logf("nucleus %d of %d factored columns over 64 installs (mean %.2f of %.1f, worst %d); installs by nucleus size: %v",
		nucleus, factors, float64(nucleus)/64, float64(factors)/64, worst, hist)
	if 10*nucleus >= factors {
		t.Fatalf("nucleus %d of %d factored columns, want under a tenth", nucleus, factors)
	}
}
