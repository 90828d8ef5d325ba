package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/pkg/steady"
	"repro/pkg/steady/control"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/server"
	"repro/pkg/steady/sim"
)

func newTestServer(t *testing.T, cfg server.Config) *server.Loop {
	t.Helper()
	return server.ServeLoop(t, server.New(cfg))
}

func platformJSON(t testing.TB, p *platform.Platform) json.RawMessage {
	t.Helper()
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeSolve(t *testing.T, resp *http.Response) server.SolveResponse {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, msg)
	}
	var out server.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSolveEndToEnd is the acceptance check for the service: the
// /v1/solve endpoint returns byte-identical exact-rational results
// to an in-process steady.Solve on the same platform and spec.
func TestSolveEndToEnd(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	p := platform.Figure1()

	solver, err := steady.New(steady.Spec{Problem: "masterslave", Root: "P1"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := solver.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}

	got := decodeSolve(t, postJSON(t, ts.URL+"/v1/solve", server.SolveRequest{
		Problem:  "masterslave",
		Root:     "P1",
		Platform: platformJSON(t, p),
	}))

	if got.Solver != want.Solver || got.Problem != "masterslave" {
		t.Fatalf("identity mismatch: %+v", got)
	}
	if got.Fingerprint != want.Fingerprint {
		t.Fatalf("fingerprint %q != in-process %q", got.Fingerprint, want.Fingerprint)
	}
	if got.Throughput != want.Throughput.String() {
		t.Fatalf("throughput %q != in-process %q", got.Throughput, want.Throughput)
	}
	if len(got.Nodes) != len(want.Nodes()) {
		t.Fatalf("nodes %d != %d", len(got.Nodes), len(want.Nodes()))
	}
	for i, n := range want.Nodes() {
		if got.Nodes[i].Name != n.Name || got.Nodes[i].Alpha != n.Alpha.String() {
			t.Fatalf("node %d: got %+v, want %s alpha=%s", i, got.Nodes[i], n.Name, n.Alpha)
		}
	}
	if len(got.Links) != len(want.Links()) {
		t.Fatalf("links %d != %d", len(got.Links), len(want.Links()))
	}
	for i, l := range want.Links() {
		if got.Links[i].Busy != l.Busy.String() {
			t.Fatalf("link %d: busy %q != %q", i, got.Links[i].Busy, l.Busy)
		}
	}
	if got.CacheHit {
		t.Fatalf("first solve reported a cache hit")
	}

	// The same request again is served from the sharded cache, with
	// the identical exact result.
	again := decodeSolve(t, postJSON(t, ts.URL+"/v1/solve", server.SolveRequest{
		Problem:  "masterslave",
		Root:     "P1",
		Platform: platformJSON(t, p),
	}))
	if !again.CacheHit {
		t.Fatalf("duplicate solve missed the cache")
	}
	if again.Throughput != got.Throughput || again.Fingerprint != got.Fingerprint {
		t.Fatalf("cache returned a different result: %+v vs %+v", again, got)
	}
}

// TestSolveMulticastFamily checks the Figure 2/3 counterexample
// through the service: sum-LP < tree packing < max-operator bound.
func TestSolveMulticastFamily(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	p := platformJSON(t, platform.Figure2())
	want := map[string]string{
		"multicast-sum":   "1/2",
		"multicast-trees": "3/4",
		"multicast":       "1",
	}
	for problem, tput := range want {
		got := decodeSolve(t, postJSON(t, ts.URL+"/v1/solve", server.SolveRequest{
			Problem:  problem,
			Root:     "P0",
			Targets:  []string{"P5", "P6"},
			Platform: p,
		}))
		if got.Throughput != tput {
			t.Fatalf("%s: throughput %q, want %q", problem, got.Throughput, tput)
		}
	}
}

func TestSolveRejections(t *testing.T) {
	srv := server.New(server.Config{MaxNodes: 4})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	fig1 := platformJSON(t, platform.Figure1()) // 6 nodes > limit 4

	cases := []struct {
		name   string
		req    server.SolveRequest
		status int
	}{
		{"unknown problem", server.SolveRequest{Problem: "nope", Platform: fig1}, http.StatusBadRequest},
		{"bad model", server.SolveRequest{Problem: "masterslave", Model: "warp", Platform: fig1}, http.StatusBadRequest},
		{"missing platform", server.SolveRequest{Problem: "masterslave"}, http.StatusBadRequest},
		{"oversized platform", server.SolveRequest{Problem: "masterslave", Platform: fig1}, http.StatusRequestEntityTooLarge},
	}
	// Twice: a refused body is never remembered, so the second post is
	// checked — and refused — like the first.
	for pass := 0; pass < 2; pass++ {
		for _, tc := range cases {
			resp := postJSON(t, ts.URL+"/v1/solve", tc.req)
			var e server.ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
				t.Fatalf("%s: undecodable error body (%v)", tc.name, err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, e.Error)
			}
		}
		if n := srv.MemoRecords(); n != 0 {
			t.Fatalf("pass %d: %d refused bodies were remembered", pass, n)
		}
	}

	// Unknown node names are resolved at solve time and rejected too:
	// that body is well-formed, so it is remembered, and the cached
	// error answers it the second time.
	small := platform.New()
	small.AddNode("A", platform.WInt(1))
	for pass := 0; pass < 2; pass++ {
		resp := postJSON(t, ts.URL+"/v1/solve", server.SolveRequest{
			Problem: "masterslave", Root: "Z", Platform: platformJSON(t, small),
		})
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("unknown node, pass %d: status %d, want 400", pass, resp.StatusCode)
		}
	}
	if n := srv.MemoRecords(); n != 1 {
		t.Fatalf("%d records after one well-formed body", n)
	}
}

// TestTrailingData: a strict endpoint reads one JSON value and nothing
// after it but whitespace. A second value is a request the client
// believes it sent, and garbage is a framing bug on its side; both used
// to be dropped silently behind a 200.
func TestTrailingData(t *testing.T) {
	srv, ts := newControlServer(t, server.Config{Control: control.Config{Epoch: time.Hour}})
	createDeployment(t, ts, "demo")
	star := string(platformJSON(t, controlStar()))
	solve := `{"problem":"masterslave","root":"P1","platform":` + star + `}`
	endpoints := []struct{ path, body string }{
		{"/v1/solve", solve},
		{"/v1/sweep", `{"problem":"masterslave","root":"P1","platforms":[` + star + `]}`},
		{"/v1/simulate", `{"problem":"masterslave","root":"P1","scenario":{"periods":20},"platform":` + star + `}`},
		{"/v1/deployments", `{"id":"other","problem":"masterslave","root":"P1","platform":` + star + `}`},
		{"/v1/deployments/demo/telemetry", `{"observations":[{"from":"P1","to":"P2","value":1.25}]}`},
		// A spelling the telemetry scanner leaves to the strict decoder.
		{"/v1/deployments/demo/telemetry", `{"Observations":[{"from":"P1","to":"P2","value":1.25}]}`},
	}
	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}
	for _, ep := range endpoints {
		for _, tail := range []string{"", "\n", " \r\n\t\n"} {
			if status, msg := post(ep.path, ep.body+tail); status != http.StatusOK {
				t.Errorf("%s with trailing %q: status %d: %s", ep.path, tail, status, msg)
			}
		}
		records := srv.MemoRecords()
		for _, tail := range []string{ep.body, "\n" + ep.body, " garbage", "]", "\x00", "0"} {
			status, msg := post(ep.path, ep.body+tail)
			var e server.ErrorResponse
			if err := json.Unmarshal([]byte(msg), &e); err != nil {
				t.Fatalf("%s with trailing %q: undecodable reply %q", ep.path, tail, msg)
			}
			if status != http.StatusBadRequest || e.Error != "decode request: unexpected data after the JSON value" {
				t.Errorf("%s with trailing %q: %d %q, want 400 and the trailing-data error", ep.path, tail, status, e.Error)
			}
		}
		if n := srv.MemoRecords(); n != records {
			t.Errorf("%s: %d refused bodies were remembered", ep.path, n-records)
		}
	}
	// The telemetry refused above reached no forecaster: 3 accepted
	// posts of one observation for each of the two spellings.
	snap, err := srv.Control().Get("demo")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Observations != 6 {
		t.Fatalf("deployment saw %d observations, want 6", snap.Observations)
	}
}

// TestBodyLimits: the body is read under MaxBodyBytes whatever the
// client declares — a length (the buffer is sized from it, up to a
// point), none (chunked), or more than it sends — and past the limit
// every endpoint answers 413 with the text it always had.
func TestBodyLimits(t *testing.T) {
	const limit = 128 << 10 // past what a declared length may presize
	_, ts := newControlServer(t, server.Config{MaxBodyBytes: limit, Control: control.Config{Epoch: time.Hour}})
	createDeployment(t, ts, "demo")
	star := string(platformJSON(t, controlStar()))
	cases := []struct {
		name, path, body, tooLarge string
	}{
		{"solve", "/v1/solve", `{"problem":"masterslave","root":"P1","platform":` + star + `}`,
			"read request: http: request body too large"},
		{"telemetry", "/v1/deployments/demo/telemetry", `{"observations":[{"from":"P1","to":"P2","value":1.25}]}`,
			"decode request: http: request body too large"},
		{"sweep", "/v1/sweep", `{"problem":"masterslave","root":"P1","platforms":[` + star + `]}`,
			"decode request: http: request body too large"},
	}
	for _, tc := range cases {
		for _, size := range []int{1000, 64 << 10, 64<<10 + 1, limit, limit + 1, 2 * limit} {
			for _, framing := range []string{"length", "chunked"} {
				// Padded to size with whitespace ahead of the value,
				// which every decoder has to read through.
				var body io.Reader = strings.NewReader(strings.Repeat("\n", size-len(tc.body)) + tc.body)
				if framing == "chunked" {
					body = io.NopCloser(body) // no length the client could declare
				}
				resp, err := http.Post(ts.URL+tc.path, "application/json", body)
				if err != nil {
					t.Fatal(err)
				}
				var e server.ErrorResponse
				msg, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				_ = json.Unmarshal(msg, &e)
				switch {
				case size <= limit && resp.StatusCode != http.StatusOK:
					t.Errorf("%s, %d bytes, %s: status %d: %s", tc.name, size, framing, resp.StatusCode, msg)
				case size > limit && (resp.StatusCode != http.StatusRequestEntityTooLarge || e.Error != tc.tooLarge):
					t.Errorf("%s, %d bytes, %s: %d %q, want 413 %q", tc.name, size, framing, resp.StatusCode, e.Error, tc.tooLarge)
				}
			}
		}
	}
}

// TestSolveTimeout pins the 504 mapping: a solve that cannot finish
// inside Config.SolveTimeout is cut off and reported as a gateway
// timeout, and the cache is not poisoned by it.
func TestSolveTimeout(t *testing.T) {
	ts := newTestServer(t, server.Config{SolveTimeout: time.Nanosecond})
	resp := postJSON(t, ts.URL+"/v1/solve", server.SolveRequest{
		Problem:  "masterslave",
		Platform: platformJSON(t, platform.Figure1()),
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
}

// TestTimedOutSolveFreesItsSlot: a solve stops when its timeout does,
// so the MaxInFlight slot it held is free when its 504 goes out. The
// platform is inside the default size limits (64 nodes, 994 of 1024
// edges) and its broadcast LP runs for minutes: while an abandoned
// solve kept its slot until the LP finished, one such request wedged a
// one-slot server — every cold solve behind it a 503 — long after its
// own client had its answer.
func TestTimedOutSolveFreesItsSlot(t *testing.T) {
	ts := newTestServer(t, server.Config{MaxInFlight: 1, SolveTimeout: 200 * time.Millisecond, QueueWait: 500 * time.Millisecond})
	big := platform.RandomConnected(rand.New(rand.NewSource(7)), 64, 1100, 5, 5, 0.15)
	hostile := server.SolveRequest{Problem: "broadcast", Root: big.Name(0), Platform: platformJSON(t, big)}
	slots := func() float64 {
		v, ok := metricValue(scrapeMetrics(t, ts.URL), "steady_server_solve_slots_inuse", nil)
		if !ok {
			t.Fatal("steady_server_solve_slots_inuse not exported")
		}
		return v
	}

	for round := 0; round < 2; round++ {
		resp := postJSON(t, ts.URL+"/v1/solve", hostile)
		resp.Body.Close()
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("round %d: status %d, want 504", round, resp.StatusCode)
		}
		for deadline := time.Now().Add(time.Second); slots() != 0; time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: a second after the 504, %v solve slots are still in use", round, slots())
			}
		}
		// The one slot is free: a cold solve sent right behind gets it.
		small := platform.RandomConnected(rand.New(rand.NewSource(int64(round))), 16, 16, 5, 5, 0.15)
		out := decodeSolve(t, postJSON(t, ts.URL+"/v1/solve", server.SolveRequest{
			Problem: "masterslave", Root: small.Name(0), Platform: platformJSON(t, small),
		}))
		if out.CacheHit {
			t.Fatalf("round %d: a first-seen platform answered from the cache", round)
		}
	}
	// The second 504 was a second miss: a timeout is never cached.
	if c := getStats(t, ts.URL).Cache; c.Solves != 2 || c.Hits != 0 || c.Entries != 2 || c.InFlight != 0 {
		t.Fatalf("cache after two timeouts and two solves: %+v, want 2 solves, no hit, 2 entries, none in flight", c)
	}
}

// TestSweepNDJSON runs a generator sweep end-to-end and checks every
// streamed record against an in-process solve of the identically
// seeded platform: same fingerprints, byte-identical throughputs.
func TestSweepNDJSON(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	const count = 8
	seed := int64(7)

	resp := postJSON(t, ts.URL+"/v1/sweep", server.SweepRequest{
		Problem:   "masterslave",
		Generator: &server.Generator{Count: count, Seed: seed},
		Format:    "ndjson",
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, msg)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q", ct)
	}

	// Reproduce the generator's platforms in-process (same (seed,
	// size) scheme) and solve them directly.
	solver, err := steady.New(steady.Spec{Problem: "masterslave"})
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{6, 8, 10, 12}
	want := map[string]*steady.Result{} // job id -> in-process result
	for i := 0; i < count; i++ {
		size := sizes[i%len(sizes)]
		rng := rand.New(rand.NewSource(seed + int64(size)))
		p := platform.RandomConnected(rng, size, size, 5, 5, 0.15)
		res, err := solver.Solve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		want[fmt.Sprintf("job%02d-n%d", i, size)] = res
	}

	lines := strings.Split(strings.TrimSpace(readAll(t, resp.Body)), "\n")
	if len(lines) != count {
		t.Fatalf("NDJSON lines = %d, want %d", len(lines), count)
	}
	hits := 0
	for _, line := range lines {
		var rec server.SweepRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if rec.Err != "" {
			t.Fatalf("job %s failed: %s", rec.Job, rec.Err)
		}
		res, ok := want[rec.Job]
		if !ok {
			t.Fatalf("unexpected job id %q", rec.Job)
		}
		if rec.Platform != res.Fingerprint {
			t.Fatalf("job %s: fingerprint %q != in-process %q", rec.Job, rec.Platform, res.Fingerprint)
		}
		if rec.Tput != res.Throughput.String() {
			t.Fatalf("job %s: throughput %q != in-process %q", rec.Job, rec.Tput, res.Throughput)
		}
		if rec.CacheHit {
			hits++
		}
	}
	// Sizes cycle 4 values over 8 jobs with per-size seeding, so the
	// second half repeats the first half's platforms.
	if hits != count/2 {
		t.Fatalf("cache hits = %d, want %d", hits, count/2)
	}
}

func TestSweepCSVAndExplicitPlatforms(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	fig1 := platformJSON(t, platform.Figure1())
	resp := postJSON(t, ts.URL+"/v1/sweep", server.SweepRequest{
		Problem:   "masterslave",
		Root:      "P1",
		Platforms: []json.RawMessage{fig1, fig1, fig1},
		Format:    "csv",
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/csv" {
		t.Fatalf("Content-Type %q", ct)
	}
	body := readAll(t, resp.Body)
	if !strings.HasPrefix(body, "job,solver,platform,throughput") {
		t.Fatalf("CSV missing header:\n%s", body)
	}
	rows := strings.Split(strings.TrimSpace(body), "\n")
	if len(rows) != 4 { // header + 3 records
		t.Fatalf("CSV rows = %d, want 4:\n%s", len(rows), body)
	}
	if !strings.Contains(body, "4/3") {
		t.Fatalf("CSV lost the exact throughput:\n%s", body)
	}
}

func TestSweepRejections(t *testing.T) {
	ts := newTestServer(t, server.Config{MaxSweepJobs: 4})
	for name, req := range map[string]server.SweepRequest{
		"no source":         {Problem: "masterslave"},
		"both sources":      {Problem: "masterslave", Generator: &server.Generator{Count: 1}, Platforms: []json.RawMessage{[]byte(`{}`)}},
		"oversized sweep":   {Problem: "masterslave", Generator: &server.Generator{Count: 100}},
		"bad generator":     {Problem: "masterslave", Generator: &server.Generator{Kind: "grid", Count: 1}},
		"unknown problem":   {Problem: "nope", Generator: &server.Generator{Count: 1}},
		"missing targets":   {Problem: "scatter", Generator: &server.Generator{Count: 1}},
		"unsupported model": {Problem: "broadcast", Model: "send-or-receive", Generator: &server.Generator{Count: 1}},
	} {
		resp := postJSON(t, ts.URL+"/v1/sweep", req)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("%s: accepted", name)
		}
	}
}

func TestSolversStatsAndHealth(t *testing.T) {
	ts := newTestServer(t, server.Config{})

	resp, err := http.Get(ts.URL + "/v1/solvers")
	if err != nil {
		t.Fatal(err)
	}
	var solvers server.SolversResponse
	if err := json.NewDecoder(resp.Body).Decode(&solvers); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(solvers.Problems) != len(steady.Problems()) {
		t.Fatalf("solvers = %d, want %d", len(solvers.Problems), len(steady.Problems()))
	}
	for _, info := range solvers.Problems {
		if info.Description == "" {
			t.Fatalf("problem %s has no description", info.Problem)
		}
		if info.Problem == "masterslave" && len(info.Models) != 2 {
			t.Fatalf("masterslave models = %v", info.Models)
		}
	}

	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	// Two identical solves: one miss, one hit; stats must say so.
	for i := 0; i < 2; i++ {
		decodeSolve(t, postJSON(t, ts.URL+"/v1/solve", server.SolveRequest{
			Problem:  "masterslave",
			Platform: platformJSON(t, platform.Figure1()),
		}))
	}
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Cache.Solves != 1 || stats.Cache.Hits != 1 {
		t.Fatalf("cache stats = %+v, want 1 solve + 1 hit", stats.Cache)
	}
	if stats.Cache.HitRate != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", stats.Cache.HitRate)
	}
	h, ok := stats.Solvers["masterslave"]
	if !ok {
		t.Fatalf("no histogram for masterslave: %+v", stats.Solvers)
	}
	if h.Count != 2 || h.CacheHits != 1 || h.Errors != 0 {
		t.Fatalf("masterslave histogram = %+v", h)
	}
	// Buckets are cumulative: the widest finite bucket holds every
	// request (nothing here takes 10s), and counts never decrease.
	if h.Buckets["<=10s"] != 2 {
		t.Fatalf("histogram <=10s = %d, want 2: %+v", h.Buckets["<=10s"], h.Buckets)
	}
	prev := int64(0)
	for _, label := range []string{"<=100us", "<=1ms", "<=10ms", "<=100ms", "<=1s", "<=10s"} {
		n, ok := h.Buckets[label]
		if !ok || n < prev {
			t.Fatalf("bucket %s = %d (prev %d, present %v): %+v", label, n, prev, ok, h.Buckets)
		}
		prev = n
	}
}

func readAll(t *testing.T, r io.Reader) string {
	t.Helper()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSimulateParity is the acceptance check for the simulation
// service: POST /v1/simulate returns the same metrics as an
// in-process sim.Engine run on the same result and scenario.
func TestSimulateParity(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	p := platform.Figure1()
	scenario := sim.Scenario{Periods: 200}

	resp := postJSON(t, ts.URL+"/v1/simulate", server.SimulateRequest{
		SolveRequest: server.SolveRequest{Problem: "masterslave", Root: "P1", Platform: platformJSON(t, p)},
		Scenario:     scenario,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, msg)
	}
	var got server.SimulateResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}

	solver, err := steady.New(steady.Spec{Problem: "masterslave", Root: "P1"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := solver.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.New(sim.Config{}).Run(context.Background(), res, scenario)
	if err != nil {
		t.Fatal(err)
	}

	gotJSON, _ := json.Marshal(got.Report)
	wantJSON, _ := json.Marshal(want)
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("service report differs from in-process run:\n service: %s\n local:   %s", gotJSON, wantJSON)
	}
	if got.Report.RatioValue < 0.95 {
		t.Errorf("served replay ratio %v < 0.95", got.Report.RatioValue)
	}
}

func TestSimulateAllProblems(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	fig2 := platformJSON(t, platform.Figure2())
	cases := []server.SimulateRequest{
		{SolveRequest: server.SolveRequest{Problem: "multicast-sum", Root: "P0", Targets: []string{"P5", "P6"}, Platform: fig2}},
		{SolveRequest: server.SolveRequest{Problem: "multicast-trees", Root: "P0", Targets: []string{"P5", "P6"}, Platform: fig2}},
		{SolveRequest: server.SolveRequest{Problem: "broadcast", Root: "P0", Platform: fig2}},
	}
	for _, req := range cases {
		resp := postJSON(t, ts.URL+"/v1/simulate", req)
		func() {
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				msg, _ := io.ReadAll(resp.Body)
				t.Fatalf("%s: status %d: %s", req.Problem, resp.StatusCode, msg)
			}
			var out server.SimulateResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			if out.Report.Kind != "periodic" || out.Report.RatioValue < 0.95 {
				t.Errorf("%s: kind %s ratio %v", req.Problem, out.Report.Kind, out.Report.RatioValue)
			}
		}()
	}
}

func TestSimulateDynamicScenario(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	resp := postJSON(t, ts.URL+"/v1/simulate", server.SimulateRequest{
		SolveRequest: server.SolveRequest{Problem: "masterslave", Root: "P1", Platform: platformJSON(t, platform.Figure1())},
		Scenario: sim.Scenario{
			Tasks:     300,
			Slowdowns: []sim.Slowdown{{Node: "P4", Factor: 2, From: 0, Until: 100}},
		},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, msg)
	}
	var out server.SimulateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Report.Kind != "online" || out.Report.Done != 300 {
		t.Errorf("dynamic report: kind %s done %d", out.Report.Kind, out.Report.Done)
	}
}

// TestSimulateTrace exercises the trace option end to end: the
// response carries the structured event trace, two identical requests
// return byte-identical traces, and a tight MaxTraceEvents cap
// truncates with the flag set.
func TestSimulateTrace(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	req := server.SimulateRequest{
		SolveRequest: server.SolveRequest{Problem: "masterslave", Root: "P1", Platform: platformJSON(t, platform.Figure1())},
		Scenario: sim.Scenario{
			Tasks:     100,
			Seed:      5,
			Slowdowns: []sim.Slowdown{{Node: "P4", Factor: 2, From: 0, Until: 100}},
		},
		Trace: true,
	}
	fetch := func(url string) server.SimulateResponse {
		t.Helper()
		resp := postJSON(t, url+"/v1/simulate", req)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			t.Fatalf("status %d: %s", resp.StatusCode, msg)
		}
		var out server.SimulateResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := fetch(ts.URL)
	if len(first.Trace) == 0 || first.TraceTruncated {
		t.Fatalf("trace: %d records, truncated %v", len(first.Trace), first.TraceTruncated)
	}
	if first.Report.TraceEvents != int64(len(first.Trace)) {
		t.Errorf("report counts %d trace events, response carries %d",
			first.Report.TraceEvents, len(first.Trace))
	}
	for i, rec := range first.Trace {
		if rec.Seq != int64(i) {
			t.Fatalf("record %d has seq %d", i, rec.Seq)
		}
	}
	second := fetch(ts.URL)
	a, _ := json.Marshal(first.Trace)
	b, _ := json.Marshal(second.Trace)
	if string(a) != string(b) {
		t.Error("same request, different traces")
	}

	// A tight cap truncates the trace but not the simulation.
	capped := newTestServer(t, server.Config{MaxTraceEvents: 10})
	got := fetch(capped.URL)
	if len(got.Trace) != 10 || !got.TraceTruncated {
		t.Errorf("capped trace: %d records, truncated %v", len(got.Trace), got.TraceTruncated)
	}
	if got.Report.Done != first.Report.Done {
		t.Errorf("trace cap changed the simulation: done %d vs %d", got.Report.Done, first.Report.Done)
	}
}

// TestSimulateRejections: a scenario is refused for what it asks,
// never for how long it asks to run — the request's deadline is the
// only bound on a simulation's time. Each row that a size cap once
// refused with 413 (periods, tasks, horizon, arrivals) states the
// bound it meets now.
func TestSimulateRejections(t *testing.T) {
	const deadline = 300 * time.Millisecond
	// A 504 leaves within this of the deadline, the request's solve
	// and both HTTP legs included: the online simulator polls the
	// deadline between events. Measured at 1–4 ms, race detector on.
	const overshoot = 50 * time.Millisecond
	ts := newTestServer(t, server.Config{SolveTimeout: deadline})
	fig1 := platformJSON(t, platform.Figure1())
	ms := server.SolveRequest{Problem: "masterslave", Root: "P1", Platform: fig1}
	// A broadcast bound of milliseconds whose companion tree packing
	// enumerates Steiner arborescences for seconds.
	packed := platform.RandomConnected(rand.New(rand.NewSource(2)), 32, 16, 5, 5, 0.15)
	bcast := server.SolveRequest{Problem: "broadcast", Root: packed.Name(0), Platform: platformJSON(t, packed)}
	cases := []struct {
		name   string
		req    server.SimulateRequest
		status int
		msg    string // the error text, when the row pins it
	}{
		{"unknown problem", server.SimulateRequest{SolveRequest: server.SolveRequest{Problem: "nope", Platform: fig1}}, http.StatusBadRequest, ""},
		// Bounded by the deadline alone: 2^30 tasks take minutes.
		{"tasks past the deadline", server.SimulateRequest{SolveRequest: ms, Scenario: sim.Scenario{Tasks: 1 << 30}}, http.StatusGatewayTimeout, ""},
		// Bounded by the deadline alone: 1e12 time units take hours.
		{"horizon past the deadline", server.SimulateRequest{SolveRequest: ms, Scenario: sim.Scenario{Horizon: 1e12}}, http.StatusGatewayTimeout, ""},
		// Bounded by sim's own arrival limit, which holds the arrival
		// times in memory: 100000.
		{"arrivals past sim's limit", server.SimulateRequest{SolveRequest: ms,
			Scenario: sim.Scenario{Arrivals: &sim.ArrivalSpec{Kind: "poisson", Rate: 1, Count: 100001}}},
			http.StatusBadRequest, "sim: arrivals: poisson arrivals count 100001 exceeds limit 100000"},
		{"unknown trace kind", server.SimulateRequest{SolveRequest: ms,
			Scenario: sim.Scenario{NodeLoad: map[string]sim.TraceSpec{"P1": {Kind: "wat"}}}}, http.StatusBadRequest, ""},
		{"dynamic scatter", server.SimulateRequest{
			SolveRequest: server.SolveRequest{Problem: "scatter", Root: "P1", Targets: []string{"P4"}, Platform: fig1},
			Scenario:     sim.Scenario{Tasks: 10},
		}, http.StatusBadRequest, ""}, // dynamic needs masterslave
		{"missing platform", server.SimulateRequest{SolveRequest: server.SolveRequest{Problem: "masterslave"}}, http.StatusBadRequest, ""},
		// Bounded by the deadline alone: the replay's companion packing
		// is a solve under the request's context like the bound's own.
		{"replay past the deadline", server.SimulateRequest{SolveRequest: bcast}, http.StatusGatewayTimeout, ""},
	}
	for _, c := range cases {
		start := time.Now()
		resp := postJSON(t, ts.URL+"/v1/simulate", c.req)
		var body server.ErrorResponse
		err := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		took := time.Since(start)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d (%s), want %d", c.name, resp.StatusCode, body.Error, c.status)
		}
		if c.msg != "" && body.Error != c.msg {
			t.Errorf("%s: error %q, want %q", c.name, body.Error, c.msg)
		}
		if c.status == http.StatusGatewayTimeout && took > deadline+overshoot {
			t.Errorf("%s: answered %v after a %v deadline", c.name, took, deadline)
		}
		// The slot is handed back before the reply is written.
		if v, _ := metricValue(scrapeMetrics(t, ts.URL), "steady_server_solve_slots_inuse", nil); v != 0 {
			t.Errorf("%s: %v solve slots in use after the reply", c.name, v)
		}
	}

	// Bounded by nothing at all: past steady state a replay extrapolates
	// exactly, so 2^62 periods cost what a hundred do. The served ratio
	// is the exact extrapolation: Ops(P) = Ops(p) + (P-p)·q once every
	// period completes the quota q, and ratio = Ops(P)/(P·q).
	ctx := context.Background()
	solver, err := steady.New(steady.Spec{Problem: "masterslave", Root: "P1"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := solver.Solve(ctx, platform.Figure1())
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(sim.Config{})
	ops := func(periods int64) *big.Int {
		rep, err := eng.Run(ctx, res, sim.Scenario{Periods: periods})
		if err != nil {
			t.Fatal(err)
		}
		n, ok := new(big.Int).SetString(rep.Ops, 10)
		if !ok {
			t.Fatalf("ops %q", rep.Ops)
		}
		return n
	}
	const p, P = 100, int64(1) << 62
	q := new(big.Int).Sub(ops(p+1), ops(p))
	want := new(big.Int).Mul(big.NewInt(P-p), q)
	want.Add(want, ops(p))
	wantRatio := new(big.Rat).SetFrac(want, new(big.Int).Mul(big.NewInt(P), q))

	resp := postJSON(t, ts.URL+"/v1/simulate", server.SimulateRequest{SolveRequest: ms, Scenario: sim.Scenario{Periods: P}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("2^62 periods: status %d: %s", resp.StatusCode, msg)
	}
	var out server.SimulateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Report.Periods != P || out.Report.Ops != want.String() {
		t.Errorf("2^62 periods: replayed %d periods, %s ops; want %d and %s", out.Report.Periods, out.Report.Ops, P, want)
	}
	if got, ok := new(big.Rat).SetString(out.Report.Ratio); !ok || got.Cmp(wantRatio) != 0 {
		t.Errorf("2^62 periods: ratio %s, want %s", out.Report.Ratio, wantRatio.RatString())
	}
}

func TestSimSweepNDJSON(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	resp := postJSON(t, ts.URL+"/v1/simsweep", server.SimSweepRequest{
		SweepRequest: server.SweepRequest{Problem: "masterslave", Generator: &server.Generator{Count: 4, Sizes: []int{5, 6}, Seed: 3}},
		Scenarios: []sim.Scenario{
			{Name: "static"},
			{Name: "hundred", Periods: 100},
		},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, msg)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	dec := json.NewDecoder(resp.Body)
	records := 0
	for {
		var rec server.CellRecord
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		records++
		if rec.Err != "" {
			t.Errorf("cell %s failed: %s", rec.Cell, rec.Err)
			continue
		}
		if rec.Report == nil || rec.Report.Kind != "periodic" {
			t.Errorf("cell %s: bad report %+v", rec.Cell, rec.Report)
		}
	}
	if records != 8 { // 4 platforms x 2 scenarios
		t.Errorf("got %d records, want 8", records)
	}

	// The scenario grid re-simulates but must not re-solve: stats
	// show at most one LP per distinct platform.
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats server.StatsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Simulations.SweepCells != 8 || stats.Simulations.Periodic != 8 {
		t.Errorf("sim stats = %+v, want 8 periodic sweep cells", stats.Simulations)
	}
	if stats.Cache.Solves > 2 { // 2 distinct (seed,size) platforms
		t.Errorf("sweep ran %d LP solves for 2 distinct platforms", stats.Cache.Solves)
	}
}

func TestSimSweepCellCap(t *testing.T) {
	ts := newTestServer(t, server.Config{MaxSweepJobs: 4})
	var scenarios []sim.Scenario
	for i := 0; i < 3; i++ {
		scenarios = append(scenarios, sim.Scenario{Periods: int64(10 + i)})
	}
	resp := postJSON(t, ts.URL+"/v1/simsweep", server.SimSweepRequest{
		SweepRequest: server.SweepRequest{Problem: "masterslave", Generator: &server.Generator{Count: 2, Sizes: []int{5}}},
		Scenarios:    scenarios, // 2 x 3 = 6 cells > 4
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status %d, want 413", resp.StatusCode)
	}
}

func TestSimSweepDuplicateScenarioLabels(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	resp := postJSON(t, ts.URL+"/v1/simsweep", server.SimSweepRequest{
		SweepRequest: server.SweepRequest{Problem: "masterslave", Generator: &server.Generator{Count: 1, Sizes: []int{5}}},
		Scenarios:    []sim.Scenario{{Name: "x", Periods: 10}, {Name: "x", Periods: 100}},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("duplicate scenario labels: status %d, want 400", resp.StatusCode)
	}
}

// TestSimSweepFeedsSolverHistograms verifies simsweep traffic is
// visible in the per-solver latency histograms like every other
// solving endpoint.
func TestSimSweepFeedsSolverHistograms(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	resp := postJSON(t, ts.URL+"/v1/simsweep", server.SimSweepRequest{SweepRequest: server.SweepRequest{Problem: "masterslave", Generator: &server.Generator{Count: 2, Sizes: []int{5}}}})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats server.StatsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	h, ok := stats.Solvers["masterslave"]
	if !ok || h.Count != 2 {
		t.Errorf("simsweep cells missing from solver histograms: %+v", stats.Solvers)
	}
}
