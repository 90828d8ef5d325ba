package lp_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/pkg/steady/lp"
	"repro/pkg/steady/platform"
)

// TestColdMissAllocations pins the allocation diet of a float-first
// cold solve at the size bench/'s cold_solve workload sends: the §3.1
// master-slave LP of a 48-node platform (≈ 280 rows × 415 columns),
// model build and solution check included. It sits near 1 200; an
// allocation per column, per row or per rat.Float64 call puts it back
// over 10 000.
func TestColdMissAllocations(t *testing.T) {
	p := platform.RandomConnected(rand.New(rand.NewSource(48)), 48, 48, 5, 5, 0.15)
	allocs := testing.AllocsPerRun(5, func() {
		ms, err := core.SolveMasterSlavePortOpts(p, 0, core.SendAndReceive, &lp.Options{FloatFirst: true})
		if err != nil {
			t.Fatal(err)
		}
		if ms.LP.CertifiedCold {
			t.Fatal("float basis not certified: this is not the path the ceiling is for")
		}
	})
	t.Logf("%.0f allocations", allocs)
	if allocs > 4500 {
		t.Fatalf("%.0f allocations per float-first solve, want <= 4500", allocs)
	}
}
