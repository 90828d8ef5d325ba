package batch_test

import "testing"

// TestFloatFirstSweepInterplay: every miss of a sweep family runs the
// float search from the crash basis, as every cold solve does, and its
// certificate repairs (near) nothing — so the whole sweep completes in
// (near) zero exact pivots without one member priming the next.
func TestFloatFirstSweepInterplay(t *testing.T) {
	cs := runFamily(t)
	if cs.FloatSolves != cs.Solves {
		t.Fatalf("no solve ran the float-first path: %+v", cs)
	}
	if cs.FloatPivots == 0 {
		t.Fatalf("float-first solve reports no float pivots: %+v", cs)
	}
	// The headline property: float search + exact certificate on every
	// miss — the sweep's total exact pivot count stays (near) zero.
	if cs.Pivots > cs.Solves || cs.Pivots != cs.RepairPivots {
		t.Fatalf("sweep took %d exact pivots (%d repairing) across %d solves, want ~0", cs.Pivots, cs.RepairPivots, cs.Solves)
	}
	if cs.ExactFallbacks != 0 {
		t.Fatalf("unexpected exact fallbacks: %+v", cs)
	}
	t.Logf("solves=%d float=%d float_pivots=%d repair=%d exact_pivots=%d",
		cs.Solves, cs.FloatSolves, cs.FloatPivots, cs.RepairPivots, cs.Pivots)
}
