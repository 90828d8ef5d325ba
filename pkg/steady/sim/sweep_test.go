package sim

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/pkg/steady"
	"repro/pkg/steady/platform"
)

// runOutcomes simulates one masterslave result per platform under the
// static scenario and wraps each report as a sweep cell's outcome.
func runOutcomes(t *testing.T) []CellOutcome {
	t.Helper()
	cells := []struct {
		id   string
		p    *platform.Platform
		spec steady.Spec
	}{
		{"fig1", platform.Figure1(), steady.Spec{Problem: "masterslave", Root: "P1"}},
		{"star", star(3), steady.Spec{Problem: "masterslave", Root: "P0"}},
	}
	eng := New(Config{})
	var outs []CellOutcome
	for _, c := range cells {
		rep, err := eng.Run(context.Background(), solveOn(t, c.spec, c.p), Scenario{Name: "static"})
		if err != nil {
			t.Fatalf("%s: %v", c.id, err)
		}
		outs = append(outs, CellOutcome{ID: c.id, Report: rep})
	}
	return outs
}

// stream feeds outcomes to sink, as a sweep endpoint does.
func stream(outs []CellOutcome, sink CellSink) error {
	for _, o := range outs {
		if err := sink(o); err != nil {
			return err
		}
	}
	return nil
}

func TestCellSinks(t *testing.T) {
	outs := runOutcomes(t)

	var jbuf strings.Builder
	if err := stream(outs, JSONCellSink(&jbuf)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jbuf.String()), "\n")
	if len(lines) != len(outs) {
		t.Fatalf("JSON sink wrote %d lines, want %d", len(lines), len(outs))
	}
	var rec CellRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("bad JSON record: %v", err)
	}
	if rec.Report == nil || rec.Report.Certified == "" {
		t.Errorf("JSON record lost the report: %s", lines[0])
	}

	var cbuf strings.Builder
	if err := stream(outs, CSVCellSink(&cbuf)); err != nil {
		t.Fatal(err)
	}
	csvLines := strings.Split(strings.TrimSpace(cbuf.String()), "\n")
	if len(csvLines) != len(outs)+1 {
		t.Fatalf("CSV sink wrote %d lines, want header + %d", len(csvLines), len(outs))
	}
	if !strings.HasPrefix(csvLines[0], "cell,solver,scenario,kind,certified") {
		t.Errorf("CSV header = %q", csvLines[0])
	}
}
