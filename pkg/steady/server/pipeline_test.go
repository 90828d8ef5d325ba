package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/pkg/steady/batch"
	"repro/pkg/steady/control"
	"repro/pkg/steady/server"
	"repro/pkg/steady/sim"
)

// decodeOK decodes a 200 response body into dst.
func decodeOK(t *testing.T, resp *http.Response, dst any) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, msg)
	}
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		t.Fatal(err)
	}
}

// TestOnePipelineAcrossEndpoints is the executable statement of "one
// solve pipeline": the same (spec, platform) sent to all five
// solve-shaped endpoints of one server is one cache entry and one LP —
// whichever endpoint sees it first — served as a hit to the other
// four, with the same certified throughput, and counted five times
// under one solver name in /v1/stats.
func TestOnePipelineAcrossEndpoints(t *testing.T) {
	raw := platformJSON(t, controlStar())
	solve := server.SolveRequest{Problem: "masterslave", Root: "P1", Platform: raw}
	sweep := server.SweepRequest{Problem: "masterslave", Root: "P1", Platforms: []json.RawMessage{raw}}

	// Each endpoint reports the certified throughput it served and
	// whether the solve behind it was a cache hit.
	endpoints := []struct {
		name string
		call func(t *testing.T, url string) (throughput string, hit bool)
	}{
		{"/v1/solve", func(t *testing.T, url string) (string, bool) {
			out := decodeSolve(t, postJSON(t, url+"/v1/solve", solve))
			return out.Throughput, out.CacheHit
		}},
		{"/v1/simulate", func(t *testing.T, url string) (string, bool) {
			var out server.SimulateResponse
			decodeOK(t, postJSON(t, url+"/v1/simulate", server.SimulateRequest{SolveRequest: solve}), &out)
			return out.Report.Certified, out.CacheHit
		}},
		{"/v1/sweep", func(t *testing.T, url string) (string, bool) {
			var out batch.Record
			decodeOK(t, postJSON(t, url+"/v1/sweep", sweep), &out)
			if out.Err != "" {
				t.Fatalf("sweep record: %s", out.Err)
			}
			return out.Tput, out.CacheHit
		}},
		{"/v1/simsweep", func(t *testing.T, url string) (string, bool) {
			var out sim.CellRecord
			decodeOK(t, postJSON(t, url+"/v1/simsweep", server.SimSweepRequest{SweepRequest: sweep}), &out)
			if out.Err != "" {
				t.Fatalf("simsweep record: %s", out.Err)
			}
			return out.Report.Certified, out.CacheHit
		}},
		{"POST /v1/deployments", func(t *testing.T, url string) (string, bool) {
			var out control.Snapshot
			decodeOK(t, postJSON(t, url+"/v1/deployments", server.DeploymentRequest{ID: "demo", SolveRequest: solve}), &out)
			return out.Epoch.Throughput, out.Epoch.CacheHit
		}},
	}

	for first := range endpoints {
		t.Run("first="+endpoints[first].name, func(t *testing.T) {
			_, ts := newControlServer(t, server.Config{Control: control.Config{Epoch: time.Hour}})
			for i := range endpoints {
				ep := endpoints[(first+i)%len(endpoints)]
				throughput, hit := ep.call(t, ts.URL)
				if throughput != "7/4" {
					t.Errorf("%s: certified throughput %q, want 7/4", ep.name, throughput)
				}
				if hit != (i > 0) {
					t.Errorf("%s (request %d): cache_hit = %v", ep.name, i+1, hit)
				}
			}
			st := getStats(t, ts.URL)
			if st.Cache.Entries != 1 || st.Cache.Solves != 1 || st.Cache.Hits != 4 {
				t.Errorf("cache = %+v, want 1 entry, 1 solve, 4 hits", st.Cache)
			}
			if len(st.Solvers) != 1 {
				t.Fatalf("stats name %d solvers, want one: %v", len(st.Solvers), st.Solvers)
			}
			for name, s := range st.Solvers {
				if name != "masterslave[root=P1]" || s.Count != 5 || s.CacheHits != 4 || s.Errors != 0 {
					t.Errorf("solver %q = %+v, want 5 observations, 4 hits under masterslave[root=P1]", name, s)
				}
			}
		})
	}
}

// TestControlSolvesCountedInStats: create, replace and drift solves
// run through the shared pipeline, so /v1/stats' per-solver histogram
// counts them like any client request.
func TestControlSolvesCountedInStats(t *testing.T) {
	srv, ts := newControlServer(t, server.Config{Control: control.Config{Epoch: time.Hour}})
	count := func() int64 {
		t.Helper()
		return getStats(t, ts.URL).Solvers["masterslave[root=P1]"].Count
	}
	if n := count(); n != 0 {
		t.Fatalf("fresh server already counts %d solves", n)
	}
	createDeployment(t, ts, "demo")
	if n := count(); n != 1 {
		t.Fatalf("count after POST /v1/deployments = %d, want 1", n)
	}
	m := srv.Control()
	if _, err := m.Observe("demo", []control.Observation{{From: "P1", To: "P2", Value: 1.5}}); err != nil {
		t.Fatal(err)
	}
	if n := m.Tick(context.Background(), time.Now().Add(24*time.Hour)); n != 1 {
		t.Fatalf("drift tick published %d epochs, want 1", n)
	}
	if n := count(); n != 2 {
		t.Fatalf("count after a drift tick = %d, want 2", n)
	}
}

// TestSolversListing pins GET /v1/solvers, which is rendered from the
// steady package's problem table.
func TestSolversListing(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	resp, err := http.Get(ts.URL + "/v1/solvers")
	if err != nil {
		t.Fatal(err)
	}
	var out server.SolversResponse
	decodeOK(t, resp, &out)
	got := ""
	for _, p := range out.Problems {
		got += fmt.Sprintf("%s|%v|%v|%s\n", p.Problem, p.NeedsTargets, p.Models, p.Description)
	}
	const want = `broadcast|false|[send-and-receive]|§3.3 bound with all reachable nodes as targets
masterslave|false|[send-and-receive send-or-receive]|§3.1 SSMS(G): steady-state master-slave tasking
multicast|true|[send-and-receive]|§3.3 max-operator relaxation (upper bound, possibly unachievable)
multicast-sum|true|[send-and-receive]|§3.3 sum-LP (achievable lower bound)
multicast-trees|true|[send-and-receive]|§4.3 exact Steiner-arborescence packing
reduce|false|[send-and-receive]|§4.2 reduce = broadcast on the reversed graph
scatter|true|[send-and-receive send-or-receive]|§3.2 SSPS(G): pipelined personalized messages
`
	if got != want {
		t.Errorf("/v1/solvers =\n%s\nwant\n%s", got, want)
	}
}
