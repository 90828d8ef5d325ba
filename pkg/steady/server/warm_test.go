package server_test

import "testing"

// TestStatsLPCounters: solving a family of structurally identical
// platforms through /v1/solve must surface simplex pivots and
// warm-start traffic in the lp section of GET /v1/stats — the second
// and later misses reuse the first solve's optimal basis. The cold
// miss searches in float64, so its search length is float_pivots plus
// its exact cold_pivots (the float-first counters have their own test).
func TestStatsLPCounters(t *testing.T) {
	lp := solveStatsFamily(t)
	cold := lp.FloatPivots + lp.ColdPivots
	if cold <= 0 {
		t.Fatalf("lp.float_pivots + lp.cold_pivots = %d, want > 0: %+v", cold, lp)
	}
	if lp.WarmSolves != 2 || lp.ColdSolves != 1 {
		t.Fatalf("lp solves = %+v, want 2 warm + 1 cold", lp)
	}
	if lp.WarmPivots+lp.ColdPivots != lp.PivotsTotal {
		t.Fatalf("lp pivot split inconsistent: %+v", lp)
	}
	if lp.WarmPivots*5 > cold {
		t.Fatalf("warm pivots %d vs cold %d — warm start bought nothing", lp.WarmPivots, cold)
	}
}
