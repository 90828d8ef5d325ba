package lp

import (
	"encoding/json"
	"fmt"
	"testing"
)

// TestBasisJSONRoundTrip: a basis survives the wire byte-for-byte in
// effect — the decoded basis warm-starts the identical model in zero
// pivots and reproduces the identical solution, exactly like the
// in-memory basis it was encoded from. This is the property the
// cluster's warm-basis shipping rests on.
func TestBasisJSONRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		m := randomSeededLEModel(seed, 0)
		cold, err := m.Solve()
		if err != nil || cold.Status != Optimal {
			t.Fatalf("seed %d: cold %v %v", seed, cold, err)
		}
		raw, err := json.Marshal(cold.Basis())
		if err != nil {
			t.Fatalf("seed %d: marshal: %v", seed, err)
		}
		var shipped Basis
		if err := json.Unmarshal(raw, &shipped); err != nil {
			t.Fatalf("seed %d: unmarshal: %v", seed, err)
		}
		if shipped.Len() != cold.Basis().Len() {
			t.Fatalf("seed %d: round trip lost entries: %d != %d", seed, shipped.Len(), cold.Basis().Len())
		}
		// Re-encoding the decoded basis must reproduce the wire bytes:
		// the encoding is canonical, not merely invertible.
		raw2, err := json.Marshal(&shipped)
		if err != nil {
			t.Fatalf("seed %d: re-marshal: %v", seed, err)
		}
		if string(raw) != string(raw2) {
			t.Fatalf("seed %d: encoding not canonical:\n%s\n%s", seed, raw, raw2)
		}
		warm, err := randomSeededLEModel(seed, 0).SolveFrom(&shipped)
		if err != nil || warm.Status != Optimal {
			t.Fatalf("seed %d: warm from shipped basis: %v %v", seed, warm, err)
		}
		if !warm.Info.WarmStarted || warm.Info.Pivots != 0 {
			t.Fatalf("seed %d: shipped basis did not warm-start (warm=%v pivots=%d)",
				seed, warm.Info.WarmStarted, warm.Info.Pivots)
		}
		if !warm.Objective.Equal(cold.Objective) {
			t.Fatalf("seed %d: warm obj %v != cold obj %v", seed, warm.Objective, cold.Objective)
		}
		for v := 0; v < m.NumVars(); v++ {
			if !warm.Value(Var(v)).Equal(cold.Value(Var(v))) {
				t.Fatalf("seed %d: var %d differs after round trip", seed, v)
			}
		}
	}
}

// TestBasisJSONNil: a nil basis is JSON null both ways.
func TestBasisJSONNil(t *testing.T) {
	var b *Basis
	raw, err := json.Marshal(b)
	if err != nil || string(raw) != "null" {
		t.Fatalf("nil basis marshaled to %q, %v", raw, err)
	}
}

// TestBasisJSONHostile: malformed wire bases are rejected with an
// error, never decoded into something SolveFrom could trip over.
func TestBasisJSONHostile(t *testing.T) {
	for _, bad := range []string{
		`{"vars":-1,"cons":2,"entries":[]}`,
		`{"vars":3,"cons":-2,"entries":[]}`,
		`{"vars":3,"cons":2,"entries":[{"k":"var","i":-1}]}`,
		`{"vars":3,"cons":2,"entries":[{"k":"artificial","i":0}]}`,
		`{"vars":3,"cons":2,"entries":[{"k":"","i":0}]}`,
		`[1,2,3]`,
	} {
		var b Basis
		if err := json.Unmarshal([]byte(bad), &b); err == nil {
			t.Errorf("accepted hostile basis %s", bad)
		}
	}
	// A basis that parses but does not fit the model is discarded by
	// the warm-start path: the solve runs cold, it does not fail.
	var misfit Basis
	if err := json.Unmarshal([]byte(`{"vars":999,"cons":999,"entries":[{"k":"var","i":998}]}`), &misfit); err != nil {
		t.Fatalf("well-formed misfit rejected: %v", err)
	}
	m := randomSeededLEModel(1, 0)
	sol, err := m.SolveFrom(&misfit)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("misfit basis broke the solve: %v %v", sol, err)
	}
	if sol.Info.WarmStarted {
		t.Fatal("misfit basis claims to have warm-started")
	}
}

// FuzzWarmBasisHint feeds arbitrary bytes to the route a peer's basis
// takes — Basis.UnmarshalJSON, then Options.WarmBasis through the float
// screen, and a float search or the exact walk after a refused hint — on
// three model families, each with its perturbed
// neighbour. Whatever the hint (wrong shape, duplicate or out-of-range
// entries, singular, stale, empty), the solve must not panic or fail,
// must reach the cold solve's status and objective, and an Optimal
// answer must pass the duality certificate: a bad hint costs a slower
// correct answer, never a different one. A nonzero stop then closes
// Options.Interrupt after that many pivots of the same solve — in the
// warm pass, or in whatever the solve went on to after turning the hint
// away — which must return that same solution or ErrInterrupted.
func FuzzWarmBasisHint(f *testing.F) {
	models := []*Model{
		blockAngularSeededModel(1, 0), blockAngularSeededModel(1, 1),
		wideSeededLEModel(2, 0), wideSeededLEModel(2, 1),
		randomSeededLEModel(11, 0), randomSeededLEModel(11, 1),
	}
	cold := make([]*Solution, len(models))
	for k, m := range models {
		var err error
		if cold[k], err = m.Solve(); err != nil || cold[k].Status != Optimal {
			f.Fatalf("model %d: cold %v %v", k, cold[k], err)
		}
		own, err := json.Marshal(cold[k].Basis())
		if err != nil {
			f.Fatal(err)
		}
		shape := fmt.Sprintf(`{"vars":%d,"cons":%d,"entries":`, m.NumVars(), m.NumCons())
		for _, exact := range []bool{true, false} {
			f.Add(own, uint8(k), exact, uint8(0))   // its own basis
			f.Add(own, uint8(k^1), exact, uint8(1)) // its neighbour's
			f.Add([]byte(shape+`[]}`), uint8(k), exact, uint8(0))
			f.Add([]byte(shape+`[{"k":"var","i":0},{"k":"var","i":0}]}`), uint8(k), exact, uint8(5))
			f.Add([]byte(shape+`[{"k":"slack","i":100000},{"k":"bslack","i":0}]}`), uint8(k), exact, uint8(0))
			// On the block-angular family variable 0 is an s_e whose bound a
			// port row implies: the entry an older peer's basis carries and
			// this form has no column for.
			f.Add([]byte(impliedBoundHint(m, 0)), uint8(k), exact, uint8(2))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, sel uint8, exact bool, stop uint8) {
		var hint Basis
		if hint.UnmarshalJSON(data) != nil {
			return
		}
		k := int(sel) % len(models)
		m := models[k]
		opts := Options{WarmBasis: &hint, exactWalk: exact}
		sol, err := m.SolveOpts(&opts)
		if err != nil {
			t.Fatalf("model %d: hint %s broke the solve: %v", k, data, err)
		}
		if sol.Status != Optimal || !sol.Objective.Equal(cold[k].Objective) {
			t.Fatalf("model %d: hint %s: %v %v, cold solve is optimal at %v", k, data, sol.Status, sol.Objective, cold[k].Objective)
		}
		if err := m.CheckOptimal(sol.values, sol.duals); err != nil {
			t.Fatalf("model %d: hint %s: %v", k, data, err)
		}
		if stop > 0 {
			c := interruptCase{build: func() *Model { return m }, opts: opts}
			if err := c.cutShort(int(stop), sol); err != nil {
				t.Fatalf("model %d: hint %s: interrupted after %d pivots: %v", k, data, stop, err)
			}
		}
	})
}
