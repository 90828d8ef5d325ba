package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/pkg/steady"
	"repro/pkg/steady/batch"
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
	hits := 0
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
		}
	}
	// 6 cells over 2 distinct (platform, spec) pairs: at least 4 of
	// the solves must come from the shared cache.
	if hits < 4 {
		t.Errorf("cache hits = %d, want >= 4 (LP re-solved per scenario?)", hits)
	}
	if st := eng.batch.Stats(); st.Solves > 2 {
		t.Errorf("batch engine ran %d LP solves for 2 distinct pairs", st.Solves)
	}
}

func TestStreamSweepDeliversAll(t *testing.T) {
	eng := New(Config{Workers: 4})
	cells := sweepCells()
	var got atomic.Int64
	seen := make(chan string, len(cells))
	err := eng.StreamSweep(context.Background(), cells, func(o CellOutcome) error {
		got.Add(1)
		seen <- o.ID
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if int(got.Load()) != len(cells) {
		t.Fatalf("sink saw %d outcomes, want %d", got.Load(), len(cells))
	}
	close(seen)
	ids := map[string]bool{}
	for id := range seen {
		if ids[id] {
			t.Errorf("outcome %s delivered twice", id)
		}
		ids[id] = true
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

// TestSweepSharedCacheWithServerEngine verifies NewWithBatch shares
// LP solutions with an external batch engine.
func TestSweepSharedCacheWithServerEngine(t *testing.T) {
	shared := batch.New(2)
	solver, err := steady.New(steady.Spec{Problem: "masterslave", Root: "P1"})
	if err != nil {
		t.Fatal(err)
	}
	p := platform.Figure1()
	if outs := shared.Run(context.Background(), []batch.Job{{ID: "warm", Platform: p, Solver: solver}}); outs[0].Err != nil {
		t.Fatal(outs[0].Err)
	}
	eng := NewWithBatch(Config{}, shared)
	outs := eng.Sweep(context.Background(), []Cell{
		{ID: "c", Platform: p, Spec: steady.Spec{Problem: "masterslave", Root: "P1"}},
	})
	if outs[0].Err != nil {
		t.Fatal(outs[0].Err)
	}
	if !outs[0].CacheHit {
		t.Error("sweep did not reuse the shared engine's cached solve")
	}
}

func TestCellSinks(t *testing.T) {
	eng := New(Config{Workers: 2})
	cells := sweepCells()[:2]

	var jbuf strings.Builder
	if err := eng.StreamSweep(context.Background(), cells, JSONCellSink(&jbuf)); err != nil {
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
	if err := eng.StreamSweep(context.Background(), cells, CSVCellSink(&cbuf)); err != nil {
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
