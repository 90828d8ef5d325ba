package lp_test

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/pkg/steady/lp"
	"repro/pkg/steady/platform"
)

// TestColdMissAllocations pins the size and the allocation diet of a
// float-first cold solve at what bench/'s cold_solve workload sends: the
// §3.1 master-slave LP of a 48-node platform.
//
// Size: the form has the model's constraints plus one bound row per
// computing node (alpha_i <= 1, which nothing implies) and none per
// edge — a one-port row Σ s <= 1 implies every s_e <= 1 on it, under
// either port model: 144 + 41 rows here where every bound once made one
// (144 + 128).
//
// Diet, model build and solution check included: 522 allocations and
// 216 KB per solve (726 and 234 KB before rat's int64 path took sums,
// products and comparisons without a detour and the builder sized its
// rows; 768 and 443 KB before the float search recycled its workspace
// and the form lost the implied rows). The ceilings are those plus 5 %
// and 10 %: a float engine built per solve is 42 allocations and
// 154 KB, the implied rows back in the form 56 KB, an allocation per
// column, per row or per rat.Float64 call over 10 000 of them, and an
// int64 path that gives up too soon — an overflow check that calls
// every negative product an overflow — eight times the count.
func TestColdMissAllocations(t *testing.T) {
	p := platform.RandomConnected(rand.New(rand.NewSource(48)), 48, 48, 5, 5, 0.15)
	for _, pm := range []core.PortModel{core.SendAndReceive, core.SendOrReceive} {
		m, err := core.MasterSlaveModel(p, 0, pm)
		if err != nil {
			t.Fatal(err)
		}
		computing := 0
		for i := 0; i < p.NumNodes(); i++ {
			if p.CanCompute(i) {
				computing++
			}
		}
		rows := 0
		for v, has := range lp.BoundRows(m) {
			if has && !strings.HasPrefix(m.Name(lp.Var(v)), "alpha[") {
				t.Fatalf("port model %v: %s <= 1 has a row", pm, m.Name(lp.Var(v)))
			}
			if has {
				rows++
			}
		}
		if rows != computing {
			t.Fatalf("port model %v: %d bound rows, want one per computing node (%d)", pm, rows, computing)
		}
	}

	solve := func() {
		ms, err := core.SolveMasterSlavePortOpts(p, 0, core.SendAndReceive, &lp.Options{FloatFirst: true})
		if err != nil {
			t.Fatal(err)
		}
		if ms.LP.CertifiedCold {
			t.Fatal("float basis not certified: this is not the path the ceiling is for")
		}
	}
	// The cheapest of a few solves, not their mean: a collection between
	// two may empty the pool, and that solve builds an engine.
	solve()
	allocs, bytes := ^uint64(0), ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 8; i++ {
		runtime.ReadMemStats(&before)
		solve()
		runtime.ReadMemStats(&after)
		allocs, bytes = min(allocs, after.Mallocs-before.Mallocs), min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("%d allocations, %d bytes", allocs, bytes)
	if info, ok := debug.ReadBuildInfo(); ok && slices.Contains(info.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		return // an instrumented binary allocates 537 times and 250 KB here, and the pool drops a Put in four
	}
	if allocs > 548 {
		t.Fatalf("%d allocations per float-first solve, want <= 548", allocs)
	}
	if bytes > 238_000 {
		t.Fatalf("%d bytes allocated per float-first solve, want <= 238 000", bytes)
	}
}
