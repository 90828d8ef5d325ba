package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/pkg/steady/cluster"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/server"
)

// rejoinPair is a served node whose one peer is a stand-in that answers
// its health probes with whatever probe says. The node probes every
// hour, so only a call from the peer can bring it back within a test.
type rejoinPair struct {
	node, peer string
	cl         *cluster.Cluster
}

func newRejoinPair(t *testing.T, probe func(n int) int) *rejoinPair {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node := "http://" + lis.Addr().String()
	var mu sync.Mutex
	probes := 0
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/cluster" {
			http.NotFound(w, r)
			return
		}
		if from := r.Header.Get(cluster.ForwardedHeader); from != node {
			t.Errorf("health probe names its sender %q, want %q", from, node)
		}
		mu.Lock()
		probes++
		n := probes
		mu.Unlock()
		w.WriteHeader(probe(n))
	}))
	t.Cleanup(peer.Close)
	cl, err := cluster.New(cluster.Config{Self: node, Peers: []string{node, peer.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Cluster: cl})
	t.Cleanup(srv.Close)
	server.ServeLoopOn(t, srv, lis)
	cl.Start()
	return &rejoinPair{node: node, peer: peer.URL, cl: cl}
}

func (rp *rejoinPair) peerHealthy() bool {
	for _, st := range rp.cl.Health() {
		if st.Peer == rp.peer {
			return st.Healthy
		}
	}
	return false
}

// waitPeer polls the node's view of its peer for up to 2 s.
func (rp *rejoinPair) waitPeer(t *testing.T, healthy bool) {
	t.Helper()
	for end := time.Now().Add(2 * time.Second); rp.peerHealthy() != healthy; time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("after 2 s the node sees its peer healthy=%v, want %v (%+v)", !healthy, healthy, rp.cl.Stats())
		}
	}
}

// callIn sends method path from the peer to the node, naming the peer
// as the sender the way every peer call does.
func (rp *rejoinPair) callIn(t *testing.T, method, path string, body io.Reader) {
	t.Helper()
	req, err := http.NewRequest(method, rp.node+path, body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(cluster.ForwardedHeader, rp.peer)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s from the peer: status %d", method, path, resp.StatusCode)
	}
}

// TestClusterReadmitsOnFirstContact: a peer that was not ready for the
// node's first probe is back on the node's ring as soon as it calls in
// — its own health probe of the node — not at the next hourly tick.
func TestClusterReadmitsOnFirstContact(t *testing.T) {
	rp := newRejoinPair(t, func(n int) int {
		if n == 1 {
			return http.StatusServiceUnavailable
		}
		return http.StatusOK
	})
	rp.waitPeer(t, false)
	rp.callIn(t, http.MethodGet, "/v1/cluster", nil)
	rp.waitPeer(t, true)
}

// TestClusterReadmitsCallDuringProbe: a call that arrives while the
// node's probe of its caller is still out, and that probe then fails,
// still brings the caller back: the call asked for one more round after
// the one in flight. The call here is a forwarded solve.
func TestClusterReadmitsCallDuringProbe(t *testing.T) {
	arrived, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	t.Cleanup(func() { once.Do(func() { close(release) }) })
	rp := newRejoinPair(t, func(n int) int {
		if n > 1 {
			return http.StatusOK
		}
		close(arrived)
		<-release
		return http.StatusServiceUnavailable
	})
	select {
	case <-arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("the node never probed its peer")
	}
	body, err := json.Marshal(server.SolveRequest{Problem: "masterslave", Root: "P1", Platform: platformJSON(t, platform.Figure1())})
	if err != nil {
		t.Fatal(err)
	}
	rp.callIn(t, http.MethodPost, "/v1/solve", bytes.NewReader(body))
	once.Do(func() { close(release) })
	for end := time.Now().Add(2 * time.Second); rp.cl.Stats().HealthChecks == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatal("the first probe round never ended")
		}
	}
	rp.waitPeer(t, true)
}
