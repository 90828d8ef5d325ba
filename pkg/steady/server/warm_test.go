package server_test

import (
	"testing"
	"time"

	"repro/pkg/steady/control"
	"repro/pkg/steady/server"
)

// TestStatsLPCounters: the lp section of GET /v1/stats splits solves
// and exact pivots by whether they started from a hint. A family of
// structurally identical platforms through /v1/solve is cold, member
// after member: no request's solve starts from another's basis. A
// deployment's drift epochs start from its previous epoch's basis, and
// those are the warm solves, certified with repair pivots only.
func TestStatsLPCounters(t *testing.T) {
	srv, ts := newControlServer(t, server.Config{Control: control.Config{Epoch: time.Hour}})
	lp := solveStatsFamily(t, ts.URL)
	if lp.FloatPivots <= 0 {
		t.Fatalf("lp.float_pivots = %d, want > 0: %+v", lp.FloatPivots, lp)
	}
	if lp.WarmSolves != 0 || lp.ColdSolves != 3 {
		t.Fatalf("lp solves = %+v, want 3 cold", lp)
	}

	createDeployment(t, ts, "demo")
	driftEpochs(t, srv.Control(), "demo", 2) // c(P1>P2) 1 -> 2: the old basis still fits
	lp = lpStats(t, ts.URL)
	if lp.WarmSolves != 1 || lp.ColdSolves != 4 {
		t.Fatalf("lp solves = %+v, want 1 warm drift epoch + 4 cold", lp)
	}
	if lp.WarmPivots+lp.ColdPivots != lp.PivotsTotal {
		t.Fatalf("lp pivot split inconsistent: %+v", lp)
	}
	if lp.WarmPivots > lp.WarmSolves {
		t.Fatalf("warm pivots %d over %d warm solves, want ~0 repair pivots each: %+v", lp.WarmPivots, lp.WarmSolves, lp)
	}
}
