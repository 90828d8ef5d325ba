package batch_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/pkg/steady/server"
)

// TestJSONAndCSVOutput: a sweep's records, written by the server's one
// NDJSON/CSV writer over a batch.Pool and the LP cache, carry one line
// per job in either format, and a duplicate platform is a cache hit.
func TestJSONAndCSVOutput(t *testing.T) {
	s := server.New(server.Config{})
	defer s.Close()
	var p bytes.Buffer
	if err := distinctPlatforms(1)[0].WriteJSON(&p); err != nil {
		t.Fatal(err)
	}
	post := func(format string) string {
		t.Helper()
		raw, err := json.Marshal(server.SweepRequest{
			Problem:   "masterslave",
			Platforms: []json.RawMessage{p.Bytes(), p.Bytes()}, // duplicate: cache hit
			Format:    format,
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(raw)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", format, rec.Code, rec.Body)
		}
		return rec.Body.String()
	}

	lines := strings.Split(strings.TrimSpace(post("ndjson")), "\n")
	if len(lines) != 2 {
		t.Fatalf("JSONL lines = %d, want 2", len(lines))
	}
	hits := 0
	for _, line := range lines {
		var rec struct {
			Job      string `json:"job"`
			Tput     string `json:"throughput"`
			CacheHit bool   `json:"cache_hit"`
			Err      string `json:"error"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad JSONL: %v", err)
		}
		if rec.Tput == "" || rec.Err != "" {
			t.Fatalf("record = %s", line)
		}
		if rec.CacheHit {
			hits++
		}
	}
	if hits != 1 {
		t.Fatalf("cache hits = %d, want 1:\n%s", hits, strings.Join(lines, "\n"))
	}

	csv := post("csv")
	if !strings.HasPrefix(csv, "job,solver,platform,throughput") {
		t.Fatalf("CSV missing header:\n%s", csv)
	}
	if got := strings.Count(strings.TrimSpace(csv), "\n"); got != 2 {
		t.Fatalf("CSV data rows = %d, want 2:\n%s", got, csv)
	}
}
