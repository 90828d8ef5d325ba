package lp_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/pkg/steady/lp"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/server"
)

// TestColdMissAllocations pins the size and the allocation diet of a
// cold solve at what bench/'s cold_solve workload sends: the §3.1
// master-slave LP of a 48-node platform.
//
// Size: the form has the model's constraints plus one bound row per
// computing node (alpha_i <= 1, which nothing implies) and none per
// edge — a one-port row Σ s <= 1 implies every s_e <= 1 on it, under
// either port model: 144 + 41 rows here where every bound once made one
// (144 + 128).
//
// Diet, model build and solution check included: 13 allocations and
// 12.8 KB per solve, about what the solve returns (21 and 21 KB while
// the hand-over to the exact engine, the model's handles and MasterSlave.S
// were copies made per solve and the basis was encoded by cloning and
// sorting the engine's; 36 and 142 KB while
// every solve standardized into a new form and built its model in new
// blocks; 522 and 216 KB while the model built a name string for every
// variable and row, an Expr for every row and a map for its objective,
// and the exact engine was built per solve; 726 and 234 KB before rat's
// int64 path took sums, products and comparisons without a detour; 768
// and 443 KB before the float search recycled its workspace and the form
// lost the implied rows). The ceilings are 14 allocations and 14 000
// bytes: those plus one allocation and 9 %. What each regression costs:
// a basis encoded by cloning and sorting the engine's instead of walking
// its inB, 1 allocation and ≈ 1.5 KB; a standardized form per solve, 9
// allocations and 71 KB; a model per solve instead of a recycled one, 6 and 50 KB; a
// name built eagerly per variable and row, 279 allocations; an Expr per
// row, 144 or more; an exact engine per solve, 28 and 62 KB; a float
// engine per solve, 42 and 154 KB; the implied rows back in the form,
// 56 KB; an int64 path that gives up too soon — an overflow check that
// calls every negative product an overflow — thousands.
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
		ms, err := core.SolveMasterSlavePortOpts(p, 0, core.SendAndReceive, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ms.LP.CertifiedCold {
			t.Fatal("float basis not certified: this is not the path the ceiling is for")
		}
	}
	// The cheapest of a few solves, not their mean: a collection between
	// two may empty the pools, and that solve builds an engine.
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
		return // an instrumented binary drops a pooled Put in four
	}
	if allocs > 14 {
		t.Fatalf("%d allocations per cold solve, want <= 14", allocs)
	}
	if bytes > 14_000 {
		t.Fatalf("%d bytes allocated per cold solve, want <= 14 000", bytes)
	}
}

// TestServedMissNamesNothing: a first-seen /v1/solve body — the n=48
// master-slave request of bench/'s cold_solve, and a broadcast and a
// reduce, the commodity-flow LP's served problems — runs no namer: the
// served path reads no variable's or row's name, so it builds none.
// Reading one name of the same LP runs its namer, once: the counter
// counts.
func TestServedMissNamesNothing(t *testing.T) {
	s := server.New(server.Config{})
	defer s.Close()
	p48 := platform.RandomConnected(rand.New(rand.NewSource(48)), 48, 48, 5, 5, 0.15)
	p8 := platform.RandomConnected(rand.New(rand.NewSource(8)), 8, 8, 5, 5, 0.15)
	before := lp.NamersRun()
	for _, c := range []struct {
		problem string
		p       *platform.Platform
	}{{"masterslave", p48}, {"broadcast", p8}, {"reduce", p8}} {
		var plat bytes.Buffer
		if err := c.p.WriteJSON(&plat); err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(server.SolveRequest{Problem: c.problem, Platform: plat.Bytes()})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.problem, rec.Code, rec.Body)
		}
		if n := lp.NamersRun() - before; n != 0 {
			t.Fatalf("%s: a served miss ran %d namers", c.problem, n)
		}
	}

	m, err := core.MasterSlaveModel(p48, 0, core.SendAndReceive)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.Name(0)+" "+m.Name(lp.Var(m.NumVars()-1)), "alpha[N0] s[N20->N40#92]"; got != want {
		t.Fatalf("names %q, want %q", got, want)
	}
	if n := lp.NamersRun() - before; n != 1 {
		t.Fatalf("reading two names ran %d namers, want 1", n)
	}
}
