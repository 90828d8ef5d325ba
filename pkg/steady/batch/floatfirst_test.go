package batch_test

import "testing"

// TestFloatFirstSweepInterplay: a sweep family's first miss runs the
// float search, as every cold solve does, and every
// later miss warm-starts from its certified basis — so the whole
// sweep completes in (near) zero exact pivots.
func TestFloatFirstSweepInterplay(t *testing.T) {
	cs := runFamily(t)
	if cs.FloatSolves < 1 {
		t.Fatalf("no solve ran the float-first path: %+v", cs)
	}
	if cs.FloatPivots == 0 {
		t.Fatalf("float-first solve reports no float pivots: %+v", cs)
	}
	// The headline interplay property: float search + exact
	// certificate on the first miss, remembered basis afterwards —
	// the sweep's total exact pivot count stays (near) zero.
	if cs.Pivots > cs.Solves {
		t.Fatalf("sweep took %d exact pivots across %d solves, want ~0 (float search + warm re-solves)", cs.Pivots, cs.Solves)
	}
	if cs.ExactFallbacks != 0 {
		t.Fatalf("unexpected exact fallbacks: %+v", cs)
	}
	t.Logf("solves=%d warm=%d float=%d float_pivots=%d repair=%d exact_pivots=%d",
		cs.Solves, cs.WarmSolves, cs.FloatSolves, cs.FloatPivots, cs.RepairPivots, cs.Pivots)
}
