package sim_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/pkg/steady/platform"
	"repro/pkg/steady/server"
	"repro/pkg/steady/sim"
)

// TestCellSinks: a simulation sweep's cell records, written by the
// server's one NDJSON/CSV writer, carry one line per cell in either
// format, and a JSON record keeps the engine's whole report.
func TestCellSinks(t *testing.T) {
	s := server.New(server.Config{})
	defer s.Close()
	var fig1 bytes.Buffer
	if err := platform.Figure1().WriteJSON(&fig1); err != nil {
		t.Fatal(err)
	}
	scenarios := []sim.Scenario{{Name: "short", Periods: 20}, {Name: "long", Periods: 40}}
	post := func(format string) string {
		t.Helper()
		raw, err := json.Marshal(server.SimSweepRequest{
			SweepRequest: server.SweepRequest{
				Problem:   "masterslave",
				Root:      "P1",
				Platforms: []json.RawMessage{fig1.Bytes()},
				Format:    format,
			},
			Scenarios: scenarios,
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simsweep", bytes.NewReader(raw)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", format, rec.Code, rec.Body)
		}
		return rec.Body.String()
	}

	lines := strings.Split(strings.TrimSpace(post("ndjson")), "\n")
	if len(lines) != len(scenarios) {
		t.Fatalf("JSON stream wrote %d lines, want %d", len(lines), len(scenarios))
	}
	var rec struct {
		Cell   string      `json:"cell"`
		Report *sim.Report `json:"report"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("bad JSON record: %v", err)
	}
	if rec.Report == nil || rec.Report.Certified == "" {
		t.Errorf("JSON record lost the report: %s", lines[0])
	}

	csvLines := strings.Split(strings.TrimSpace(post("csv")), "\n")
	if len(csvLines) != len(scenarios)+1 {
		t.Fatalf("CSV stream wrote %d lines, want header + %d", len(csvLines), len(scenarios))
	}
	if !strings.HasPrefix(csvLines[0], "cell,solver,scenario,kind,certified") {
		t.Errorf("CSV header = %q", csvLines[0])
	}
}
