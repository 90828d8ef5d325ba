package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/pkg/steady"
	"repro/pkg/steady/platform"
)

// sweepCells builds a scenario grid over two platforms: every
// (platform, spec) pair appears under several scenarios, so the sweep
// exercises the shared LP-solution cache.
func sweepCells() []Cell {
	fig1 := platform.Figure1()
	st := star(3)
	ms := steady.Spec{Problem: "masterslave", Root: "P1"}
	msStar := steady.Spec{Problem: "masterslave", Root: "P0"}
	scenarios := []Scenario{
		{Name: "static"},
		{Name: "short", Periods: 64},
		{Name: "slow", Tasks: 120, Slowdowns: []Slowdown{{Node: "P2", Factor: 2, From: 5, Until: 40}}},
	}
	var cells []Cell
	for i, sc := range scenarios {
		cells = append(cells,
			Cell{ID: fmt.Sprintf("fig1-%d", i), Platform: fig1, Spec: ms, Scenario: sc},
			Cell{ID: fmt.Sprintf("star-%d", i), Platform: st, Spec: msStar, Scenario: sc},
		)
	}
	return cells
}

// TestSweepConcurrent drives the scenario sweep with many workers (run
// under -race in CI): outcomes arrive in cell order, none fail, and
// the LP solves once per distinct (platform, spec) pair.
func TestSweepConcurrent(t *testing.T) {
	eng := New(Config{Workers: 8})
	cells := sweepCells()
	outs := eng.Sweep(context.Background(), cells)
	if len(outs) != len(cells) {
		t.Fatalf("got %d outcomes for %d cells", len(outs), len(cells))
	}
	hits, solves := 0, 0
	for i, o := range outs {
		if o.ID != cells[i].ID {
			t.Errorf("outcome %d is %q, want %q (order lost)", i, o.ID, cells[i].ID)
		}
		if o.Err != nil {
			t.Errorf("cell %s: %v", o.ID, o.Err)
			continue
		}
		if o.Report == nil || o.Report.CertifiedValue <= 0 {
			t.Errorf("cell %s: empty report", o.ID)
		}
		if o.CacheHit {
			hits++
		} else {
			solves++
		}
	}
	// 6 cells over 2 distinct (platform, spec) pairs: at least 4 of
	// the solves must come from the shared cache.
	if hits < 4 {
		t.Errorf("cache hits = %d, want >= 4 (LP re-solved per scenario?)", hits)
	}
	if solves > 2 {
		t.Errorf("sweep ran %d LP solves for 2 distinct pairs", solves)
	}
}

func TestSweepBadCells(t *testing.T) {
	eng := New(Config{})
	outs := eng.Sweep(context.Background(), []Cell{
		{ID: "no-platform", Spec: steady.Spec{Problem: "masterslave"}},
		{ID: "bad-spec", Platform: platform.Figure1(), Spec: steady.Spec{Problem: "nope"}},
		{ID: "bad-scenario", Platform: platform.Figure1(),
			Spec: steady.Spec{Problem: "masterslave"}, Scenario: Scenario{Periods: -3}},
	})
	for _, o := range outs {
		if o.Err == nil {
			t.Errorf("cell %s unexpectedly succeeded", o.ID)
		}
	}
}

// stream feeds a sweep's outcomes to sink, as a sweep endpoint does.
func stream(eng *Engine, cells []Cell, sink CellSink) error {
	for _, o := range eng.Sweep(context.Background(), cells) {
		if err := sink(o); err != nil {
			return err
		}
	}
	return nil
}

func TestCellSinks(t *testing.T) {
	eng := New(Config{Workers: 2})
	cells := sweepCells()[:2]

	var jbuf strings.Builder
	if err := stream(eng, cells, JSONCellSink(&jbuf)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jbuf.String()), "\n")
	if len(lines) != len(cells) {
		t.Fatalf("JSON sink wrote %d lines, want %d", len(lines), len(cells))
	}
	var rec CellRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("bad JSON record: %v", err)
	}
	if rec.Report == nil || rec.Report.Certified == "" {
		t.Errorf("JSON record lost the report: %s", lines[0])
	}

	var cbuf strings.Builder
	if err := stream(eng, cells, CSVCellSink(&cbuf)); err != nil {
		t.Fatal(err)
	}
	csvLines := strings.Split(strings.TrimSpace(cbuf.String()), "\n")
	if len(csvLines) != len(cells)+1 {
		t.Fatalf("CSV sink wrote %d lines, want header + %d", len(csvLines), len(cells))
	}
	if !strings.HasPrefix(csvLines[0], "cell,solver,scenario,kind,certified") {
		t.Errorf("CSV header = %q", csvLines[0])
	}
}
