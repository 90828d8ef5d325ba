package server_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/pkg/steady/server"
)

// TestSolveInvalidPlatforms posts every class of malformed platform
// JSON to /v1/solve and requires a clean 400 with an error body.
// Before platform.ReadJSON validated decoded input, several of these
// payloads flowed into the panicking AddNode/AddEdge builders and
// crashed the handler (httptest turns that into a closed connection,
// postJSON would fail) — this test is the regression fence.
func TestSolveInvalidPlatforms(t *testing.T) {
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	cases := []struct {
		name string
		json string
	}{
		{"zero weight", `{"nodes":[{"name":"A","w":"0"}],"edges":[]}`},
		{"negative weight", `{"nodes":[{"name":"A","w":"-3"}],"edges":[]}`},
		{"unparsable weight", `{"nodes":[{"name":"A","w":"fast"}],"edges":[]}`},
		{"duplicate node name", `{"nodes":[{"name":"A","w":"1"},{"name":"A","w":"2"}],"edges":[]}`},
		{"empty platform", `{"nodes":[],"edges":[]}`},
		{"zero cost", `{"nodes":[{"name":"A","w":"1"},{"name":"B","w":"1"}],"edges":[{"from":"A","to":"B","c":"0"}]}`},
		{"negative cost", `{"nodes":[{"name":"A","w":"1"},{"name":"B","w":"1"}],"edges":[{"from":"A","to":"B","c":"-1"}]}`},
		{"self loop", `{"nodes":[{"name":"A","w":"1"}],"edges":[{"from":"A","to":"A","c":"1"}]}`},
		{"unknown endpoint", `{"nodes":[{"name":"A","w":"1"}],"edges":[{"from":"A","to":"B","c":"1"}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Twice: the refusal must not depend on the body being new.
			for pass := 0; pass < 2; pass++ {
				resp := postJSON(t, ts.URL+"/v1/solve", server.SolveRequest{
					Problem:  "masterslave",
					Platform: json.RawMessage(tc.json),
				})
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusBadRequest {
					t.Fatalf("pass %d: status %d, want 400", pass, resp.StatusCode)
				}
				var e server.ErrorResponse
				if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
					t.Fatalf("pass %d: undecodable error body (%v)", pass, err)
				}
			}
		})
	}
	if n := srv.MemoRecords(); n != 0 {
		t.Fatalf("%d invalid platforms were remembered", n)
	}
}
