package server_test

import (
	"testing"
	"time"

	"repro/pkg/steady/control"
	"repro/pkg/steady/server"
)

// TestStatsLPCounters: the lp section of GET /v1/stats counts every
// solve cold. A family of structurally identical platforms through
// /v1/solve is cold, member after member, and so are a deployment's
// create and drift epochs: no solve starts from another's basis, and the
// deprecated warm fields stay 0.
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
	driftEpochs(t, srv.Control(), "demo", 2)
	lp = lpStats(t, ts.URL)
	if lp.WarmSolves != 0 || lp.ColdSolves != 5 {
		t.Fatalf("lp solves = %+v, want 5 cold: the family, the create and one drift epoch", lp)
	}
	if lp.WarmPivots != 0 || lp.ColdPivots != lp.PivotsTotal {
		t.Fatalf("lp pivot split = %+v, want every pivot cold", lp)
	}
}
