package schedule

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/pkg/steady/lp"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

var updateGolden = flag.Bool("update", false, "rewrite the LP-format golden files")

// fixedPeriodFigure1 is FixedPeriod's flow LP for the Figure 1
// master-slave optimum at period 10.
func fixedPeriodFigure1(t *testing.T) *lp.Model {
	t.Helper()
	ms, err := core.SolveMasterSlave(platform.Figure1(), 0)
	if err != nil {
		t.Fatal(err)
	}
	m, _, _ := fixedPeriodModel(ms, 10, false)
	return m
}

// TestWriteLPGolden pins the LP-format export of the fixed-period LP
// byte for byte, as internal/core's test of that name pins the paper's
// LPs. Regenerate with go test ./internal/schedule -run TestWriteLPGolden
// -update.
func TestWriteLPGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := fixedPeriodFigure1(t).WriteLP(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "fixedperiod_figure1.lp")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("LP export drifted from golden %s (regenerate with -update only if the model itself legitimately changed)", path)
	}
}

// TestFixedPeriodRowNames pins the text CheckFeasible gives a point
// that breaks a conservation row of the fixed-period LP: it names the
// row.
func TestFixedPeriodRowNames(t *testing.T) {
	m := fixedPeriodFigure1(t)
	x := make([]rat.Rat, m.NumVars())
	for v := range x {
		if m.Name(lp.Var(v)) == "comp[n1]" {
			x[v] = rat.One()
		}
	}
	const want = "lp: constraint 0 (conserve[n1]): -1 == 0 violated"
	if err := m.CheckFeasible(x); err == nil || err.Error() != want {
		t.Fatalf("CheckFeasible says %v, want %q", err, want)
	}
}
