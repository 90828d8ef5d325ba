package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/pkg/steady/cluster"
	"repro/pkg/steady/control"
	"repro/pkg/steady/obs"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/server"
	"repro/pkg/steady/sim"
)

// scrapeMetrics fetches GET /metrics and parses the exposition,
// which doubles as a validity check of the rendered format.
func scrapeMetrics(t *testing.T, base string) []obs.Sample {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("GET /metrics: content type %q", ct)
	}
	samples, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	return samples
}

// metricValue finds the sample with the given name whose labels
// include every given pair.
func metricValue(samples []obs.Sample, name string, labels map[string]string) (float64, bool) {
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		match := true
		for k, v := range labels {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s.Value, true
		}
	}
	return 0, false
}

func getStats(t *testing.T, base string) server.StatsResponse {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	return stats
}

// TestMetricsStatsConsistency runs a scripted workload — two solves
// (one cache hit), one simulation — and checks that GET /metrics and
// GET /v1/stats are two views of the same registry: every number
// reported by both must agree, and the exposition must cover all four
// layers (lp, cache, sim, http).
func TestMetricsStatsConsistency(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	p := platformJSON(t, platform.Figure1())

	solveReq := server.SolveRequest{Problem: "masterslave", Root: "P1", Platform: p}
	first := decodeSolve(t, postJSON(t, ts.URL+"/v1/solve", solveReq))
	again := decodeSolve(t, postJSON(t, ts.URL+"/v1/solve", solveReq))
	if first.CacheHit || !again.CacheHit {
		t.Fatalf("expected miss then hit, got %v then %v", first.CacheHit, again.CacheHit)
	}
	simResp := postJSON(t, ts.URL+"/v1/simulate", server.SimulateRequest{
		SolveRequest: server.SolveRequest{Problem: "masterslave", Root: "P1", Platform: p},
		Scenario:     sim.Scenario{Periods: 20},
	})
	io.Copy(io.Discard, simResp.Body)
	simResp.Body.Close()
	if simResp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: status %d", simResp.StatusCode)
	}

	stats := getStats(t, ts.URL)
	samples := scrapeMetrics(t, ts.URL)

	solver := first.Solver
	ss, ok := stats.Solvers[solver]
	if !ok {
		t.Fatalf("stats has no solver entry %q (have %v)", solver, stats.Solvers)
	}
	// 2 x /v1/solve plus the /v1/simulate solve (a cache hit).
	if ss.Count != 3 || ss.CacheHits != 2 || ss.Errors != 0 {
		t.Fatalf("solver stats: %+v, want count=3 hits=2 errors=0", ss)
	}
	checks := []struct {
		name   string
		labels map[string]string
		want   float64
	}{
		{"steady_solve_requests_total", map[string]string{"solver": solver}, float64(ss.Count)},
		{"steady_solve_cache_hits_total", map[string]string{"solver": solver}, float64(ss.CacheHits)},
		{"steady_server_sim_runs_total", nil, float64(stats.Simulations.Runs)},
		{"steady_server_sim_substrate_total", map[string]string{"kind": "periodic"}, float64(stats.Simulations.Periodic)},
		{"steady_http_requests_total", map[string]string{"endpoint": "POST /v1/solve", "code": "200"}, 2},
		{"steady_http_requests_total", map[string]string{"endpoint": "POST /v1/simulate", "code": "200"}, 1},
		// The second /v1/solve body was a repeat; /v1/simulate has no memo.
		{"steady_solve_memo_total", map[string]string{"outcome": "miss"}, 1},
		{"steady_solve_memo_total", map[string]string{"outcome": "hit"}, 1},
	}
	for _, c := range checks {
		got, ok := metricValue(samples, c.name, c.labels)
		if !ok {
			t.Errorf("metric %s%v missing from exposition", c.name, c.labels)
			continue
		}
		if got != c.want {
			t.Errorf("metric %s%v = %g, stats view says %g", c.name, c.labels, got, c.want)
		}
	}
	if stats.Simulations.Runs != 1 || stats.Simulations.Periodic != 1 {
		t.Errorf("sim stats: %+v, want runs=1 periodic=1", stats.Simulations)
	}

	// The histogram behind the JSON view: count equals requests, and
	// the cumulative finite buckets never exceed it.
	if v, ok := metricValue(samples, "steady_solve_duration_seconds_count",
		map[string]string{"solver": solver}); !ok || v != float64(ss.Count) {
		t.Errorf("duration histogram count = %g (present %v), want %d", v, ok, ss.Count)
	}
	for label, n := range ss.Buckets {
		if n < 0 || n > ss.Count {
			t.Errorf("bucket %q = %d outside [0, %d]", label, n, ss.Count)
		}
	}

	// All four layers must be represented in one scrape.
	for _, name := range []string{
		"steady_lp_pivots_total",              // lp
		"steady_lp_solves_total",              // lp
		"steady_cache_misses_total",           // batch
		"steady_cache_entries",                // batch
		"steady_sim_runs_total",               // sim engine
		"steady_sim_events_total",             // sim/event
		"steady_stage_duration_seconds_count", // spans
		"steady_server_uptime_seconds",        // server
		"steady_http_request_duration_seconds_count",
	} {
		if _, ok := metricValue(samples, name, nil); !ok {
			t.Errorf("layer metric %s missing from exposition", name)
		}
	}
}

// TestMetricsDisabled pins the off switch: no /metrics endpoint, an
// empty (but well-formed) /v1/stats, and solves still work.
func TestMetricsDisabled(t *testing.T) {
	ts := newTestServer(t, server.Config{DisableMetrics: true})
	p := platformJSON(t, platform.Figure1())
	res := decodeSolve(t, postJSON(t, ts.URL+"/v1/solve", server.SolveRequest{
		Problem: "masterslave", Root: "P1", Platform: p,
	}))
	if res.Throughput == "" {
		t.Fatal("solve failed with metrics disabled")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /metrics with metrics disabled: status %d, want 404", resp.StatusCode)
	}

	stats := getStats(t, ts.URL)
	if len(stats.Solvers) != 0 {
		t.Errorf("disabled metrics still reported solvers: %v", stats.Solvers)
	}
	if stats.Simulations != (server.SimStatsJSON{}) {
		t.Errorf("disabled metrics still reported simulations: %+v", stats.Simulations)
	}
	// The cache section comes from the cache itself, not the registry,
	// and keeps working.
	if stats.Cache.Solves == 0 {
		t.Errorf("cache stats empty with metrics disabled: %+v", stats.Cache)
	}
}

// TestRegistryInjection: the server's registry, which Registry() hands
// embedders, is the one it records into, and DisableMetrics leaves none.
func TestRegistryInjection(t *testing.T) {
	s := server.New(server.Config{})
	defer s.Close()
	reg := s.Registry()
	if reg == nil {
		t.Fatal("Registry() is nil with metrics enabled")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	decodeSolve(t, postJSON(t, ts.URL+"/v1/solve", server.SolveRequest{
		Problem: "masterslave", Root: "P1", Platform: platformJSON(t, platform.Figure1()),
	}))
	solves := reg.CounterVec("steady_lp_solves_total", "", "path")
	if solves.With("cold").Value()+solves.With("float").Value() == 0 {
		t.Error("the server's registry saw no LP solves")
	}
	s2 := server.New(server.Config{DisableMetrics: true})
	defer s2.Close()
	if s2.Registry() != nil {
		t.Error("DisableMetrics left a registry")
	}
}

// TestREDSeriesConcurrent: the middleware resolves each (route, status)
// pair's series once and shares them across requests; first sightings
// of several pairs racing each other lose no request, and two handlers
// of one server count into the same series.
func TestREDSeriesConcurrent(t *testing.T) {
	s := server.New(server.Config{})
	defer s.Close()
	reg := s.Registry()
	handlers := []http.Handler{s.Handler(), s.Handler()}
	requests := []struct {
		method, path, endpoint, code string
	}{
		{http.MethodGet, "/v1/healthz", "GET /v1/healthz", "200"},
		{http.MethodGet, "/v1/solvers", "GET /v1/solvers", "200"},
		{http.MethodGet, "/v1/deployments/ghost", "GET /v1/deployments/{id}", "404"},
		{http.MethodPost, "/v1/solve", "POST /v1/solve", "400"},
		{http.MethodGet, "/nowhere", "unmatched", "404"},
		{http.MethodDelete, "/v1/solve", "unmatched", "405"},
	}
	const goroutines, rounds = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for j := range requests {
					rq := requests[(j+g)%len(requests)]
					handlers[(g+i)%2].ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(rq.method, rq.path, nil))
				}
			}
		}(g)
	}
	wg.Wait()
	counts := reg.CounterVec("steady_http_requests_total", "", "endpoint", "code")
	durations := reg.HistogramVec("steady_http_request_duration_seconds", "", nil, "endpoint")
	for _, rq := range requests {
		if got := counts.With(rq.endpoint, rq.code).Value(); got != goroutines*rounds {
			t.Errorf("%s %s: counted %d requests, want %d", rq.endpoint, rq.code, got, goroutines*rounds)
		}
	}
	if got := durations.With("unmatched").Count(); got != 2*goroutines*rounds {
		t.Errorf("unmatched: %d durations observed, want %d", got, 2*goroutines*rounds)
	}
}

// TestPprofMux: the standard profile index is served; the service
// routes are not on it.
func TestPprofMux(t *testing.T) {
	ts := httptest.NewServer(server.PprofMux())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/: status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof mux serves service routes")
	}
}

var updateCatalog = flag.Bool("update", false, "rewrite docs/METRICS.txt from a live server's exposition")

// TestMetricsCatalog pins docs/METRICS.txt — the name, type and help of
// every metric family a steadyd exports — to a live server joined to a
// one-peer cluster, after one request of each kind that registers
// families: a solve, a simulation, a sweep, a deployment create, a
// telemetry post and a control tick. Families that first appear on an
// error or fallback path are not listed: steady_lp_errors_total,
// steady_sim_errors_total, and steady_lp_fallbacks_total with
// steady_lp_exact_fallbacks_total, which count the exact walks that
// answer in place of a refused float basis. Only the # HELP and # TYPE lines are kept,
// so the file does not move with timings. Regenerate with
// go test ./pkg/steady/server -run TestMetricsCatalog -update.
func TestMetricsCatalog(t *testing.T) {
	self := "http://steadyd.invalid"
	cl, err := cluster.New(cluster.Config{Self: self, Peers: []string{self}})
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newControlServer(t, server.Config{Cluster: cl, Control: control.Config{Epoch: time.Hour}})
	raw := platformJSON(t, controlStar())
	solve := server.SolveRequest{Problem: "masterslave", Root: "P1", Platform: raw}
	decodeSolve(t, postJSON(t, ts.URL+"/v1/solve", solve))
	decodeOK(t, postJSON(t, ts.URL+"/v1/simulate", server.SimulateRequest{SolveRequest: solve}), &server.SimulateResponse{})
	decodeOK(t, postJSON(t, ts.URL+"/v1/sweep", server.SweepRequest{Problem: "masterslave", Root: "P1", Platforms: []json.RawMessage{raw}}), &server.SweepRecord{})
	createDeployment(t, ts, "demo")
	decodeOK(t, postJSON(t, ts.URL+"/v1/deployments/demo/telemetry", server.TelemetryRequest{
		Observations: []control.Observation{{From: "P1", To: "P2", Value: 4}},
	}), &server.TelemetryResponse{})
	if n := srv.Control().Tick(context.Background(), time.Now().Add(24*time.Hour)); n != 1 {
		t.Fatalf("drift tick published %d epochs, want 1", n)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, line := range strings.SplitAfter(string(body), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			got.WriteString(line)
		}
	}
	path := filepath.Join("..", "..", "..", "docs", "METRICS.txt")
	if *updateCatalog {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("metric families drifted from docs/METRICS.txt (regenerate with go test ./pkg/steady/server -run TestMetricsCatalog -update)\ngot:\n%s", got.Bytes())
	}
}
