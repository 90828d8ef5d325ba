package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/pkg/steady"
	"repro/pkg/steady/control"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
	"repro/pkg/steady/server"
)

// newControlServer is newTestServer plus the *server.Server handle
// (to drive the control manager deterministically) and a Close that
// also stops the control plane's background loop.
func newControlServer(t *testing.T, cfg server.Config) (*server.Server, *server.Loop) {
	t.Helper()
	srv := server.New(cfg)
	t.Cleanup(srv.Close) // after the loop's own cleanup: cleanups run last first
	return srv, server.ServeLoop(t, srv)
}

// controlStar is the 3-node fixture of the control-plane tests:
// master P1 (w=1), workers P2 (w=2, c=1) and P3 (w=3, c=2).
// Nominal master-slave throughput 7/4; after the c(P1>P2)=1.5 drift,
// 13/8 — both unique optima.
func controlStar() *platform.Platform {
	p := platform.New()
	p1 := p.AddNode("P1", platform.WInt(1))
	p2 := p.AddNode("P2", platform.WInt(2))
	p3 := p.AddNode("P3", platform.WInt(3))
	p.AddEdge(p1, p2, rat.FromInt(1))
	p.AddEdge(p1, p3, rat.FromInt(2))
	return p
}

func createDeployment(t *testing.T, ts *server.Loop, id string) control.Snapshot {
	t.Helper()
	resp := postJSON(t, ts.URL+"/v1/deployments", server.DeploymentRequest{
		ID: id,
		SolveRequest: server.SolveRequest{
			Problem:  "masterslave",
			Root:     "P1",
			Platform: platformJSON(t, controlStar()),
		},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("create deployment: status %d: %s", resp.StatusCode, msg)
	}
	var snap control.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestDeploymentLifecycleHTTP(t *testing.T) {
	_, ts := newControlServer(t, server.Config{Control: control.Config{Epoch: time.Hour}})

	snap := createDeployment(t, ts, "demo")
	if snap.Epoch == nil || snap.Epoch.Version != 1 || snap.Epoch.Throughput != "7/4" {
		t.Fatalf("create snapshot = %+v", snap.Epoch)
	}

	resp, err := http.Get(ts.URL + "/v1/deployments")
	if err != nil {
		t.Fatal(err)
	}
	var list server.DeploymentListResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Deployments) != 1 || list.Deployments[0] != "demo" {
		t.Fatalf("list = %+v", list)
	}

	resp, err = http.Get(ts.URL + "/v1/deployments/demo")
	if err != nil {
		t.Fatal(err)
	}
	var got control.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.ID != "demo" || got.Epoch.Version != 1 || len(got.Nodes) != 3 {
		t.Fatalf("get snapshot = %+v", got)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/deployments/demo", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/deployments/demo")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: status %d, want 404", resp.StatusCode)
	}
}

// TestControlBadRequests table-tests the hostile-input contract of
// every control endpoint: malformed bodies, bad ids, unknown names,
// non-finite and non-positive measurements all answer 4xx without
// touching any state.
func TestControlBadRequests(t *testing.T) {
	_, ts := newControlServer(t, server.Config{Control: control.Config{Epoch: time.Hour}})
	createDeployment(t, ts, "demo")

	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	goodPlatform := string(platformJSON(t, controlStar()))

	cases := map[string]struct {
		path string
		body string
		want int
	}{
		"create broken json": {"/v1/deployments", `{"id":`, 400},
		"create unknown field": {"/v1/deployments",
			`{"id":"x","problem":"masterslave","platfrm":{}}`, 400},
		"create bad id": {"/v1/deployments",
			`{"id":"no spaces!","problem":"masterslave","platform":` + goodPlatform + `}`, 400},
		"create bad problem": {"/v1/deployments",
			`{"id":"x","problem":"nope","platform":` + goodPlatform + `}`, 400},
		"create bad root": {"/v1/deployments",
			`{"id":"x","problem":"masterslave","root":"Z","platform":` + goodPlatform + `}`, 400},
		"telemetry unknown deployment": {"/v1/deployments/ghost/telemetry",
			`{"observations":[{"node":"P2","value":2}]}`, 404},
		"telemetry empty batch":  {"/v1/deployments/demo/telemetry", `{"observations":[]}`, 400},
		"telemetry unknown node": {"/v1/deployments/demo/telemetry", `{"observations":[{"node":"P9","value":2}]}`, 400},
		"telemetry unknown edge": {"/v1/deployments/demo/telemetry", `{"observations":[{"from":"P2","to":"P3","value":2}]}`, 400},
		"telemetry node and edge": {"/v1/deployments/demo/telemetry",
			`{"observations":[{"node":"P2","from":"P1","to":"P2","value":2}]}`, 400},
		"telemetry neither":        {"/v1/deployments/demo/telemetry", `{"observations":[{"value":2}]}`, 400},
		"telemetry zero value":     {"/v1/deployments/demo/telemetry", `{"observations":[{"node":"P2","value":0}]}`, 400},
		"telemetry negative value": {"/v1/deployments/demo/telemetry", `{"observations":[{"node":"P2","value":-4}]}`, 400},
		"telemetry null value":     {"/v1/deployments/demo/telemetry", `{"observations":[{"node":"P2","value":null}]}`, 400},
		"telemetry huge literal":   {"/v1/deployments/demo/telemetry", `{"observations":[{"node":"P2","value":1e999}]}`, 400},
		"telemetry valid rides with bad": {"/v1/deployments/demo/telemetry",
			`{"observations":[{"node":"P2","value":2},{"node":"P9","value":2}]}`, 400},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			if got := post(tc.path, tc.body); got != tc.want {
				t.Fatalf("status %d, want %d", got, tc.want)
			}
		})
	}

	// None of the rejected telemetry reached a forecaster.
	resp, err := http.Get(ts.URL + "/v1/deployments/demo")
	if err != nil {
		t.Fatal(err)
	}
	var snap control.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Observations != 0 {
		t.Fatalf("rejected batches leaked %d observations", snap.Observations)
	}

	// Watch-specific 4xx: bad resume version and unknown deployment.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/deployments/demo/watch", nil)
	req.Header.Set("Last-Event-ID", "not-a-number")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad Last-Event-ID: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/deployments/ghost/watch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("watch unknown deployment: status %d, want 404", resp.StatusCode)
	}
}

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	id    string
	event string
	data  []byte
}

// readEvent reads the next SSE event, skipping keepalive comments.
func readEvent(t *testing.T, br *bufio.Reader) sseEvent {
	t.Helper()
	var ev sseEvent
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("SSE stream ended: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if ev.data != nil {
				return ev
			}
		case strings.HasPrefix(line, ":"): // keepalive comment
		case strings.HasPrefix(line, "id: "):
			ev.id = line[len("id: "):]
		case strings.HasPrefix(line, "event: "):
			ev.event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			ev.data = []byte(line[len("data: "):])
		}
	}
}

// watchStream opens /v1/deployments/{id}/watch and returns a reader
// over the event stream plus a cancel for the request.
func watchStream(t *testing.T, ts *server.Loop, id, lastEventID string) (*bufio.Reader, context.CancelFunc, *http.Response) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/deployments/"+id+"/watch", nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	t.Cleanup(func() { cancel(); resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("watch: status %d: %s", resp.StatusCode, msg)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("watch Content-Type = %q", ct)
	}
	return bufio.NewReader(resp.Body), cancel, resp
}

// TestWatchDriftDelta drives the full loop over HTTP: create, watch,
// post drifting telemetry, and assert the re-solved epoch arrives as
// a delta event whose schedule is byte-identical to POST /v1/solve of
// the true drifted platform.
func TestWatchDriftDelta(t *testing.T) {
	// A real 50ms control loop: telemetry must surface as a new epoch
	// without any test-side nudging.
	_, ts := newControlServer(t, server.Config{
		Control: control.Config{Epoch: 50 * time.Millisecond},
	})
	createDeployment(t, ts, "demo")
	br, _, _ := watchStream(t, ts, "demo", "")

	first := readEvent(t, br)
	if first.id != "1" || first.event != "epoch" {
		t.Fatalf("first event = id %q event %q", first.id, first.event)
	}
	var v1 control.Epoch
	if err := json.Unmarshal(first.data, &v1); err != nil {
		t.Fatal(err)
	}
	if v1.Throughput != "7/4" || v1.Reason != "create" {
		t.Fatalf("first epoch = %+v", v1)
	}

	resp := postJSON(t, ts.URL+"/v1/deployments/demo/telemetry", server.TelemetryRequest{
		Observations: []control.Observation{{From: "P1", To: "P2", Value: 1.5}},
	})
	var tr server.TelemetryResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if tr.Accepted != 1 {
		t.Fatalf("telemetry accepted = %d", tr.Accepted)
	}

	second := readEvent(t, br)
	var v2 control.Epoch
	if err := json.Unmarshal(second.data, &v2); err != nil {
		t.Fatal(err)
	}
	if second.id != "2" || v2.Version != 2 || v2.Reason != "drift" {
		t.Fatalf("drift event = id %q %+v", second.id, v2)
	}
	if v2.Throughput != "13/8" {
		t.Fatalf("drifted throughput = %q, want 13/8", v2.Throughput)
	}
	if v2.Delta == nil || v2.Delta.FromVersion != 1 || !v2.Delta.ThroughputChanged {
		t.Fatalf("delta = %+v", v2.Delta)
	}

	// Byte-identity with a fresh certified solve of the drifted
	// platform through the ordinary solve endpoint.
	drifted := platform.New()
	p1 := drifted.AddNode("P1", platform.WInt(1))
	p2 := drifted.AddNode("P2", platform.WInt(2))
	p3 := drifted.AddNode("P3", platform.WInt(3))
	drifted.AddEdge(p1, p2, rat.New(3, 2))
	drifted.AddEdge(p1, p3, rat.FromInt(2))
	sresp := postJSON(t, ts.URL+"/v1/solve", server.SolveRequest{
		Problem: "masterslave", Root: "P1", Platform: platformJSON(t, drifted),
	})
	sol := decodeSolve(t, sresp)
	if sol.Fingerprint != v2.Fingerprint || sol.Throughput != v2.Throughput {
		t.Fatalf("epoch %s@%s vs solve %s@%s", v2.Throughput, v2.Fingerprint, sol.Throughput, sol.Fingerprint)
	}
	for i, n := range sol.Nodes {
		if v2.Nodes[i].Alpha != n.Alpha || v2.Nodes[i].Rate != n.Rate {
			t.Fatalf("node %s: epoch %+v vs solve %+v", n.Name, v2.Nodes[i], n)
		}
	}
	for i, l := range sol.Links {
		if v2.Links[i].Busy != l.Busy {
			t.Fatalf("link %s>%s: epoch %q vs solve %q", l.From, l.To, v2.Links[i].Busy, l.Busy)
		}
	}
}

// retainedEpochs is how many epochs the control plane keeps per
// deployment for Last-Event-ID replay.
const retainedEpochs = 64

// driftEpochs publishes drift epochs on the deployment until it is at
// version upto, through the in-process manager: the observed P1>P2
// cost rises by one each round, and the synthetic clock by a day.
func driftEpochs(t testing.TB, m *control.Manager, id string, upto uint64) {
	t.Helper()
	now := time.Now()
	for v := uint64(1); v < upto; v++ {
		if _, err := m.Observe(id, []control.Observation{{From: "P1", To: "P2", Value: float64(v + 1)}}); err != nil {
			t.Fatal(err)
		}
		if n := m.Tick(context.Background(), now.Add(time.Duration(v)*24*time.Hour)); n != 1 {
			t.Fatalf("drift round v%d published %d", v, n)
		}
	}
}

// TestWatchResumeHTTP checks Last-Event-ID replay and the resync
// fallback over real HTTP, driving epochs deterministically through
// the in-process manager (the background loop is parked at a 1h
// period).
func TestWatchResumeHTTP(t *testing.T) {
	srv, ts := newControlServer(t, server.Config{
		Control: control.Config{Epoch: time.Hour, DriftThreshold: 1e-6},
	})
	createDeployment(t, ts, "demo")
	const cur = retainedEpochs + 3
	driftEpochs(t, srv.Control(), "demo", cur)

	// Resume two versions back: both replay in order.
	br, _, _ := watchStream(t, ts, "demo", strconv.Itoa(cur-2))
	for _, want := range []int{cur - 1, cur} {
		ev := readEvent(t, br)
		if ev.id != strconv.Itoa(want) {
			t.Fatalf("replayed event id %q, want %d", ev.id, want)
		}
	}

	// Resume from v1 (fallen out of the retained history): one resync
	// epoch.
	br, _, _ = watchStream(t, ts, "demo", "1")
	ev := readEvent(t, br)
	var ep control.Epoch
	if err := json.Unmarshal(ev.data, &ep); err != nil {
		t.Fatal(err)
	}
	if !ep.Resync || ep.Version != cur || ep.Delta != nil {
		t.Fatalf("stale resume = %+v, want v%d resync without delta", ep, cur)
	}
}

// FuzzWatchResume feeds arbitrary resume tokens — as a Last-Event-ID
// header and as an ?after= parameter — through the watch handler's
// parser and then Manager.Watch, on a deployment with more epochs than
// the retained history. Each token must end in exactly one outcome,
// never a panic or a hang: a 400 carrying the parse error; a fresh
// subscription's current epoch; nothing pending (up to date, or ahead);
// the contiguous replay after the token; or one resync copy of the
// current epoch without a delta.
func FuzzWatchResume(f *testing.F) {
	const cur = retainedEpochs + 6
	for _, seed := range []string{"", "0", "1", strconv.Itoa(cur), strconv.Itoa(cur + 1),
		"18446744073709551615", "18446744073709551616", "-1", " 1", "1e3"} {
		f.Add(seed)
	}
	srv := server.New(server.Config{Control: control.Config{Epoch: time.Hour, DriftThreshold: 1e-6}})
	f.Cleanup(srv.Close)
	m := srv.Control()
	if _, err := m.Create(context.Background(), "demo", steady.Spec{Problem: "masterslave", Root: "P1"}, controlStar()); err != nil {
		f.Fatal(err)
	}
	driftEpochs(f, m, "demo", cur)
	h := srv.Handler()

	f.Fuzz(func(t *testing.T, token string) {
		for _, viaQuery := range []bool{false, true} {
			r := httptest.NewRequest(http.MethodGet, "/v1/deployments/demo/watch", nil)
			if viaQuery {
				r.URL.RawQuery = url.Values{"after": {token}}.Encode()
			} else {
				r.Header.Set("Last-Event-ID", token)
			}
			checkResume(t, h, m, r, token, cur)
		}
	})
}

// checkResume is one FuzzWatchResume case: r carries token, and the
// deployment "demo" is at version cur.
func checkResume(t *testing.T, h http.Handler, m *control.Manager, r *http.Request, token string, cur uint64) {
	t.Helper()
	last, err := server.WatchResume(r)
	want, perr := strconv.ParseUint(token, 10, 64)
	if token == "" {
		want, perr = 0, nil
	}
	if (err != nil) != (perr != nil) || (err == nil && last != want) {
		t.Fatalf("WatchResume(%q) = %d, %v; strconv says %d, %v", token, last, err, want, perr)
	}
	if err != nil {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var body server.ErrorResponse
		if jerr := json.Unmarshal(rec.Body.Bytes(), &body); jerr != nil || rec.Code != http.StatusBadRequest || body.Error != err.Error() {
			t.Fatalf("token %q: status %d body %q, want 400 %q", token, rec.Code, rec.Body.Bytes(), err)
		}
		return
	}

	sub, err := m.Watch("demo", last)
	if err != nil {
		t.Fatalf("Watch(%d): %v", last, err)
	}
	defer sub.Close()
	var got []*control.Epoch
	for drained := false; !drained; {
		select {
		case ep := <-sub.Events():
			got = append(got, ep)
		default:
			drained = true
		}
	}
	versions := make([]uint64, len(got))
	for i, ep := range got {
		versions[i] = ep.Version
	}
	oldest := cur - retainedEpochs + 1
	switch {
	case last == 0:
		if len(got) != 1 || got[0].Version != cur || got[0].Resync {
			t.Fatalf("fresh watch got %v, want the clean current v%d", versions, cur)
		}
	case last >= cur:
		if len(got) != 0 {
			t.Fatalf("resume from v%d at v%d got %v, want nothing pending", last, cur, versions)
		}
	case last+1 >= oldest:
		if uint64(len(got)) != cur-last {
			t.Fatalf("resume from v%d got %v, want v%d..v%d", last, versions, last+1, cur)
		}
		for i, ep := range got {
			if ep.Version != last+1+uint64(i) || ep.Resync {
				t.Fatalf("resume from v%d got %v, want v%d..v%d", last, versions, last+1, cur)
			}
		}
	default:
		if len(got) != 1 || got[0].Version != cur || !got[0].Resync || got[0].Delta != nil {
			t.Fatalf("resume from v%d (history from v%d) got %v, want one resync v%d without delta", last, oldest, versions, cur)
		}
	}
}

// TestWatchDisconnectReleasesSlot: closing the client request frees
// the MaxWatchers slot (the handler deregisters on context done, it
// does not wait for an eviction).
func TestWatchDisconnectReleasesSlot(t *testing.T) {
	srv, ts := newControlServer(t, server.Config{
		Control: control.Config{Epoch: time.Hour, MaxWatchers: 1},
	})
	createDeployment(t, ts, "demo")

	br, cancel, _ := watchStream(t, ts, "demo", "")
	readEvent(t, br) // stream is live

	resp, err := http.Get(ts.URL + "/v1/deployments/demo/watch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second watcher: status %d, want 429", resp.StatusCode)
	}

	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Control().Watchers() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("disconnected watcher still registered after 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	br2, _, _ := watchStream(t, ts, "demo", "")
	readEvent(t, br2)
}

// TestWatchStreamEndsOnRemove: deleting a watched deployment closes
// every subscriber's stream promptly (EOF, not a hang).
func TestWatchStreamEndsOnRemove(t *testing.T) {
	_, ts := newControlServer(t, server.Config{Control: control.Config{Epoch: time.Hour}})
	createDeployment(t, ts, "demo")
	br, _, resp := watchStream(t, ts, "demo", "")
	readEvent(t, br)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/deployments/demo", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()

	done := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.Discard, resp.Body)
		done <- err
	}()
	select {
	case <-done: // EOF (or reset): the stream ended either way
	case <-time.After(5 * time.Second):
		t.Fatal("watch stream did not end after deployment removal")
	}
}

// TestControlMetricsExposed: the steady_control_* families render on
// /metrics from the first scrape, pre-seeded label children included.
func TestControlMetricsExposed(t *testing.T) {
	_, ts := newControlServer(t, server.Config{Control: control.Config{Epoch: time.Hour}})
	createDeployment(t, ts, "demo")
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"steady_control_deployments 1",
		`steady_control_resolves_total{reason="create"} 1`,
		`steady_control_resolves_total{reason="drift"} 0`,
		`steady_control_drift_suppressed_total{reason="min_interval"} 0`,
		"steady_control_epochs_total 1",
		"steady_control_watchers 0",
		"steady_control_observations_total 0",
		"steady_control_watch_evictions_total 0",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
