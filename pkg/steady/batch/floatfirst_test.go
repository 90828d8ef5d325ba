package batch_test

import "testing"

// TestFloatFirstSweepInterplay: every miss of a sweep family runs the
// float search from the crash basis, as every cold solve does, and its
// certificate accepts the float basis as installed — so the whole sweep
// completes in zero exact pivots without one member priming the next.
func TestFloatFirstSweepInterplay(t *testing.T) {
	cs := runFamily(t)
	if cs.FloatSolves != cs.Solves {
		t.Fatalf("no solve ran the float-first path: %+v", cs)
	}
	if cs.FloatPivots == 0 {
		t.Fatalf("float-first solve reports no float pivots: %+v", cs)
	}
	// The headline property: float search + exact certificate on every
	// miss — the sweep's total exact pivot count is zero.
	if cs.Pivots != 0 {
		t.Fatalf("sweep took %d exact pivots across %d solves, want 0", cs.Pivots, cs.Solves)
	}
	if cs.ExactFallbacks != 0 {
		t.Fatalf("unexpected exact fallbacks: %+v", cs)
	}
	t.Logf("solves=%d float=%d float_pivots=%d exact_pivots=%d",
		cs.Solves, cs.FloatSolves, cs.FloatPivots, cs.Pivots)
}
