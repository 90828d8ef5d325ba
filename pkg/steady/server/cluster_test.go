package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/pkg/steady"
	"repro/pkg/steady/batch"
	"repro/pkg/steady/cluster"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/server"
)

// testCluster is a real multi-node cluster on loopback listeners: n
// servers that each know the full peer list, with the health loop NOT
// running so tests drive membership transitions deterministically via
// MarkPeer.
type testCluster struct {
	urls    []string
	servers []*server.Server
	loops   []*server.Loop
}

func newTestCluster(t testing.TB, n int, mutate func(i int, ccfg *cluster.Config, scfg *server.Config)) *testCluster {
	t.Helper()
	// The chicken-and-egg of self-addressed peers: listeners first (the
	// OS picks ports), then every config can name every URL.
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = lis
		urls[i] = "http://" + lis.Addr().String()
	}
	tc := &testCluster{urls: urls}
	for i, lis := range listeners {
		ccfg := cluster.Config{Self: urls[i], Peers: urls}
		scfg := server.Config{}
		if mutate != nil {
			mutate(i, &ccfg, &scfg)
		}
		cl, err := cluster.New(ccfg)
		if err != nil {
			t.Fatal(err)
		}
		scfg.Cluster = cl
		srv := server.New(scfg)
		t.Cleanup(srv.Close) // after the loops' own cleanups
		tc.servers = append(tc.servers, srv)
		tc.loops = append(tc.loops, server.ServeLoopOn(t, srv, lis))
	}
	return tc
}

// stop kills node i's HTTP listener (the process "crashes"); its
// Server and membership entry remain, as in a real outage.
func (tc *testCluster) stop(i int) { tc.loops[i].Stop() }

// ownerOf returns the index of the node owning the key for p under
// solverName, according to node 0's full ring.
func (tc *testCluster) ownerOf(t testing.TB, p *platform.Platform, solverName string) int {
	t.Helper()
	key := batch.Key(steady.Fingerprint(p), solverName)
	owner := tc.servers[0].Cluster().Owner(key)
	for i, u := range tc.urls {
		if u == owner {
			return i
		}
	}
	t.Fatalf("owner %q not among %v", owner, tc.urls)
	return -1
}

// canonSolve strips the per-request fields (cache_hit, elapsed_us)
// and returns the response's canonical bytes: everything that must be
// byte-identical no matter which peer answered.
func canonSolve(t *testing.T, body []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("bad solve response %s: %v", body, err)
	}
	delete(m, "cache_hit")
	delete(m, "elapsed_us")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func solverName(t testing.TB, spec steady.Spec) string {
	t.Helper()
	solver, err := steady.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	return solver.Name()
}

// TestClusterForwardByteIdentity: the same solve POSTed to every node
// of a 3-node cluster answers byte-identically everywhere (modulo the
// per-request cache_hit/elapsed_us fields); non-owners forward (the
// X-Steady-Served-By header names the owner) and the owner solves
// exactly once.
func TestClusterForwardByteIdentity(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	p := platform.Figure1()
	owner := tc.ownerOf(t, p, solverName(t, steady.Spec{Problem: "masterslave", Root: "P1"}))

	req := server.SolveRequest{Problem: "masterslave", Root: "P1", Platform: platformJSON(t, p)}
	var canon []string
	forwarded := 0
	for i, u := range tc.urls {
		resp := postJSON(t, u+"/v1/solve", req)
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("node %d: status %d (%v): %s", i, resp.StatusCode, err, body)
		}
		if served := resp.Header.Get(cluster.ServedByHeader); served != "" {
			forwarded++
			if served != tc.urls[owner] {
				t.Fatalf("node %d forwarded to %q, owner is %q", i, served, tc.urls[owner])
			}
			if i == owner {
				t.Fatal("the owner forwarded to itself")
			}
		}
		canon = append(canon, canonSolve(t, body))
	}
	for i := 1; i < len(canon); i++ {
		if canon[i] != canon[0] {
			t.Fatalf("node %d answered differently:\n%s\nvs\n%s", i, canon[i], canon[0])
		}
	}
	if forwarded != 2 {
		t.Fatalf("%d of 3 requests were forwarded, want 2 (all but the owner's)", forwarded)
	}
	// One logical solve cluster-wide: only the owner's cache worked.
	for i, srv := range tc.servers {
		want := int64(0)
		if i == owner {
			want = 1
		}
		if got := srv.Cache().Stats().Solves; got != want {
			t.Errorf("node %d ran %d solves, want %d", i, got, want)
		}
	}
}

// TestClusterForwardFraming: a reply relayed from the owner is framed
// like the owner's own — Content-Length, not chunked — also when it is
// larger than net/http's pre-chunking buffer (an n=48 reply is ≈ 10 KB).
func TestClusterForwardFraming(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	p := platform.RandomConnected(rand.New(rand.NewSource(48)), 48, 48, 5, 5, 0.15)
	owner := tc.ownerOf(t, p, solverName(t, steady.Spec{Problem: "masterslave"}))
	req := server.SolveRequest{Problem: "masterslave", Platform: platformJSON(t, p)}

	var canon [2]string
	for i, node := range []int{owner, 1 - owner} { // direct, then forwarded
		resp := postJSON(t, tc.urls[node]+"/v1/solve", req)
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("node %d: status %d (%v): %s", node, resp.StatusCode, err, body)
		}
		if forwarded := resp.Header.Get(cluster.ServedByHeader) != ""; forwarded != (i == 1) {
			t.Fatalf("node %d: forwarded = %v", node, forwarded)
		}
		if len(body) < 4096 {
			t.Fatalf("reply of %d bytes does not reach the chunking threshold", len(body))
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("node %d: Content-Length %d, Transfer-Encoding %v for a %d-byte reply",
				node, resp.ContentLength, resp.TransferEncoding, len(body))
		}
		canon[i] = canonSolve(t, body)
	}
	if canon[0] != canon[1] {
		t.Fatalf("forwarded reply differs from the owner's:\n%s\nvs\n%s", canon[1], canon[0])
	}
}

// forwardPair is a two-node cluster, an n=16 hot body the owner has
// already solved, and post, which sends the body to a node over one
// keep-alive client and reads the reply to its end.
func forwardPair(tb testing.TB, metrics bool) (post func(node int) *http.Response, front int) {
	tb.Helper()
	tc := newTestCluster(tb, 2, func(_ int, _ *cluster.Config, scfg *server.Config) { scfg.DisableMetrics = !metrics })
	p := platform.RandomConnected(rand.New(rand.NewSource(16)), 16, 16, 5, 5, 0.15)
	owner := tc.ownerOf(tb, p, solverName(tb, steady.Spec{Problem: "masterslave"}))
	raw, err := json.Marshal(server.SolveRequest{Problem: "masterslave", Platform: platformJSON(tb, p)})
	if err != nil {
		tb.Fatal(err)
	}
	client := &http.Client{Transport: &http.Transport{}}
	tb.Cleanup(client.CloseIdleConnections)
	post = func(node int) *http.Response {
		resp, err := client.Post(tc.urls[node]+"/v1/solve", "application/json", bytes.NewReader(raw))
		if err != nil {
			tb.Fatal(err)
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil || resp.StatusCode != http.StatusOK {
			tb.Fatalf("node %d: status %d (%v)", node, resp.StatusCode, err)
		}
		return resp
	}
	post(owner) // solved once, then a memo hit
	front = 1 - owner
	if resp := post(front); resp.Header.Get(cluster.ServedByHeader) == "" {
		tb.Fatal("the front peer did not forward")
	}
	return post, front
}

// TestClusterForwardAllocations: the front peer relays the owner's reply
// from a pooled buffer in one write, with metrics on (the handler's
// writer is the metrics layer's statusWriter, which hides ReadFrom) and
// off (it is net/http's own response, whose ReadFrom allocates a copy
// buffer of its own). The ceiling is on everything the process
// allocates per forwarded request — client, front peer and owner, which
// answers from its memo: 8.55–8.7 KB either way since the heads of the
// hop are read and written in place (≈ 15.3 KB before). The ceiling
// sits under each regression it guards: http.ReadRequest in place of
// the head scanner on both peers adds ≈ 600 bytes, http.ReadResponse on
// the front peer ≈ 360–420, (*http.Request).Write in place of the
// appended head ≈ 900, an http.Client on the front peer's side of the
// hop ≈ 3.3 KB, and relaying through io.Copy's 32 KB buffer ≈ 32 KB.
func TestClusterForwardAllocations(t *testing.T) {
	for _, metrics := range []bool{true, false} {
		t.Run(fmt.Sprintf("metrics=%v", metrics), func(t *testing.T) {
			post, front := forwardPair(t, metrics)
			// The cheapest forward, not the mean: a collection between two
			// may empty the pools.
			cheapest := ^uint64(0)
			var before, after runtime.MemStats
			for range 20 {
				runtime.ReadMemStats(&before)
				post(front)
				runtime.ReadMemStats(&after)
				cheapest = min(cheapest, after.TotalAlloc-before.TotalAlloc)
			}
			t.Logf("%d bytes allocated per forwarded request", cheapest)
			if info, ok := debug.ReadBuildInfo(); ok && slices.Contains(info.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
				return // an instrumented binary's pools drop a Put in four
			}
			if cheapest > 8_850 {
				t.Fatalf("%d bytes allocated per forwarded request, want <= 8 850", cheapest)
			}
		})
	}
}

// BenchmarkClusterForward is the in-package ruler of bench/'s
// cluster_fwd operation, the hop's counterpart of BenchmarkServerHandleHot
// (memo_test.go): one hot body sent over loopback to the node that does
// not own it, which forwards it to the owner and relays the reply. Its
// time and allocations are the whole process's: client, front peer and
// owner.
func BenchmarkClusterForward(b *testing.B) {
	post, front := forwardPair(b, true)
	b.ReportAllocs()
	for b.Loop() {
		post(front)
	}
}

// TestClusterSingleFlight: concurrent identical requests sprayed over
// all three nodes collapse into ONE solve cluster-wide — forwarding
// concentrates the key on its owner, whose cache single-flights the
// misses.
func TestClusterSingleFlight(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	p := platform.Figure1()
	req := server.SolveRequest{Problem: "masterslave", Root: "P1", Platform: platformJSON(t, p)}
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	const perNode = 8
	var wg sync.WaitGroup
	errs := make(chan error, 3*perNode)
	for _, u := range tc.urls {
		for r := 0; r < perNode; r++ {
			wg.Add(1)
			go func(url string) {
				defer wg.Done()
				resp, err := http.Post(url+"/v1/solve", "application/json", bytes.NewReader(raw))
				if err != nil {
					errs <- err
					return
				}
				defer resp.Body.Close()
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d", url, resp.StatusCode)
				}
			}(u)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var solves int64
	for _, srv := range tc.servers {
		solves += srv.Cache().Stats().Solves
	}
	if solves != 1 {
		t.Fatalf("cluster ran %d solves for one key under concurrency, want 1", solves)
	}
}

// TestClusterOwnerTimeoutRelayed: an owner whose solve runs out of its
// deadline answers 504, and the front relays it: solving the same LP
// again locally would keep the client waiting a second deadline and
// hold a slot on two peers. The forward counts, not as an error, and
// the owner stays healthy.
func TestClusterOwnerTimeoutRelayed(t *testing.T) {
	tc := newTestCluster(t, 3, func(_ int, _ *cluster.Config, scfg *server.Config) {
		scfg.SolveTimeout = time.Nanosecond
	})
	p := platform.Figure1()
	owner := tc.ownerOf(t, p, solverName(t, steady.Spec{Problem: "masterslave", Root: "P1"}))
	other := (owner + 1) % 3
	req := server.SolveRequest{Problem: "masterslave", Root: "P1", Platform: platformJSON(t, p)}

	resp := postJSON(t, tc.urls[other]+"/v1/solve", req)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("solve past the owner's deadline: status %d: %s, want 504", resp.StatusCode, body)
	}
	if served := resp.Header.Get(cluster.ServedByHeader); served != tc.urls[owner] {
		t.Fatalf("504 served by %q, want the owner %q", served, tc.urls[owner])
	}
	if st := tc.servers[other].Cluster().Stats(); st.Forwards != 1 || st.ForwardErrors != 0 {
		t.Fatalf("stats after a relayed 504: %+v, want one forward and no error", st)
	}
	for _, st := range tc.servers[other].Cluster().Health() {
		if !st.Healthy {
			t.Fatalf("a relayed 504 marked %s down", st.Peer)
		}
	}
}

// TestClusterOwnerDownFallback: with the owner dead, a request for its
// key still succeeds — the forward fails, the peer is marked down, the
// solve falls back to a cold local run, and later requests do not even
// attempt the forward (the live ring rebalanced).
func TestClusterOwnerDownFallback(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	p := platform.Figure1()
	name := solverName(t, steady.Spec{Problem: "masterslave", Root: "P1"})
	owner := tc.ownerOf(t, p, name)
	tc.stop(owner)

	other := (owner + 1) % 3
	req := server.SolveRequest{Problem: "masterslave", Root: "P1", Platform: platformJSON(t, p)}
	resp := postJSON(t, tc.urls[other]+"/v1/solve", req)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve with dead owner: status %d: %s (graceful degradation must never 5xx)",
			resp.StatusCode, body)
	}
	st := tc.servers[other].Cluster().Stats()
	if st.Forwards != 1 || st.ForwardErrors != 1 {
		t.Fatalf("stats after dead-owner solve: %+v, want exactly one failed forward", st)
	}
	// The failed forward marked the owner down: the key moved to a
	// survivor on the live ring, so the next request from `other`
	// either serves locally or forwards to the other survivor — never
	// the corpse.
	if newOwner := tc.servers[other].Cluster().Owner(batch.Key(steady.Fingerprint(p), name)); newOwner == tc.urls[owner] {
		t.Fatalf("dead owner %q still owns the key on the live ring", newOwner)
	}
	resp = postJSON(t, tc.urls[other]+"/v1/solve", req)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second solve: status %d", resp.StatusCode)
	}
	if st := tc.servers[other].Cluster().Stats(); st.ForwardErrors != 1 {
		t.Fatalf("second solve attempted the dead owner again: %+v", st)
	}
}

// TestClusterEndpointSingleNode: an unclustered server still serves
// GET /v1/cluster, reporting enabled=false.
func TestClusterEndpointSingleNode(t *testing.T) {
	ts := newTestServer(t, server.Config{})
	resp, err := http.Get(ts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out server.ClusterResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Enabled {
		t.Fatal("single-node server claims to be clustered")
	}
}

// TestClusterEndpoint: a clustered node reports its membership view,
// ring size, and counters.
func TestClusterEndpoint(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	resp, err := http.Get(tc.urls[0] + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out server.ClusterResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out.Enabled || out.Self != tc.urls[0] || len(out.Peers) != 3 {
		t.Fatalf("cluster view: %+v", out)
	}
	if out.RingSize != 3*out.VirtualNodes {
		t.Fatalf("ring size %d with %d virtual nodes per peer", out.RingSize, out.VirtualNodes)
	}
}

// TestClusterForwardLoopGuard: a request that already carries the
// forwarded header is served locally even by a non-owner, so rings
// that disagree can never bounce a request around.
func TestClusterForwardLoopGuard(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	p := platform.Figure1()
	owner := tc.ownerOf(t, p, solverName(t, steady.Spec{Problem: "masterslave", Root: "P1"}))
	other := (owner + 1) % 3

	raw, err := json.Marshal(server.SolveRequest{
		Problem: "masterslave", Root: "P1", Platform: platformJSON(t, p)})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, tc.urls[other]+"/v1/solve", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.ForwardedHeader, "test")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded-marked request: status %d", resp.StatusCode)
	}
	// Served locally by the non-owner: its cache solved, the owner's
	// never saw the key, and the hop was counted.
	if got := tc.servers[other].Cache().Stats().Solves; got != 1 {
		t.Fatalf("non-owner ran %d solves, want 1 (local serve)", got)
	}
	if got := tc.servers[owner].Cache().Stats().Solves; got != 0 {
		t.Fatalf("owner ran %d solves for a request that must not travel", got)
	}
	if st := tc.servers[other].Cluster().Stats(); st.ForwardedServed != 1 || st.Forwards != 0 {
		t.Fatalf("loop-guard stats: %+v", st)
	}
}
