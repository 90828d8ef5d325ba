package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/pkg/steady/obs"
)

// The peer transport's contract: at most maxPeerConns connections per
// peer, idle ones closed after the idle timeout, a stale pooled
// connection retried once on a new one, a connection pooled only after
// a reply read to its end, and the caller's context cancelling the call.

// connCounts counts the connections an owner accepted and the ones it
// saw end.
type connCounts struct{ opened, closed atomic.Int64 }

// newOwner starts a loopback peer serving h and counting connections.
func newOwner(t *testing.T, h http.Handler) (*httptest.Server, *connCounts) {
	t.Helper()
	cc := &connCounts{}
	srv := httptest.NewUnstartedServer(h)
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		switch s {
		case http.StateNew:
			cc.opened.Add(1)
		case http.StateClosed, http.StateHijacked:
			cc.closed.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, cc
}

// newFront is a cluster of a self no one dials and the given owners.
func newFront(t *testing.T, owners ...string) *Cluster {
	t.Helper()
	self := "http://self.invalid"
	c, err := New(Config{Self: self, Peers: append([]string{self}, owners...)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// echo answers every body with a reply made from it: its digest and
// the body again, so replies differ in bytes and in length.
var echo = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	fmt.Fprintf(w, "%x %s|%s", sha256.Sum256(body), r.Host, body)
})

// later is a forward deadline no test reaches.
func later() time.Time { return time.Now().Add(30 * time.Second) }

// forward sends body to owner and returns the reply's status and body.
func forward(t *testing.T, c *Cluster, owner string, body []byte) (int, []byte, error) {
	t.Helper()
	resp, err := c.Forward(context.Background(), owner, "/v1/solve", "application/json", body, later())
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	return resp.StatusCode, reply, err
}

// counts reports the connections open to p, busy or idle, and the idle
// ones.
func (p *peer) counts() (open, idle int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.slots), len(p.idle)
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestPeerStaleConnectionRetried: an owner that drops its idle
// connections (as one does when it restarts) costs the next forward a
// second dial, not an error — the peer stays healthy and forward_errors
// 0. Only when the new connection fails too is the owner down.
func TestPeerStaleConnectionRetried(t *testing.T) {
	owner, cc := newOwner(t, echo)
	c := newFront(t, owner.URL)
	if _, _, err := forward(t, c, owner.URL, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if open, idle := c.peers[owner.URL].counts(); open != 1 || idle != 1 {
		t.Fatalf("after one forward: %d open, %d idle, want 1 and 1", open, idle)
	}
	owner.CloseClientConnections()
	waitFor(t, "the owner to close its connection", func() bool { return cc.closed.Load() == 1 })

	status, reply, err := forward(t, c, owner.URL, []byte("two"))
	if err != nil || status != http.StatusOK || !bytes.HasSuffix(reply, []byte("|two")) {
		t.Fatalf("forward over a stale connection: status %d, %q, %v", status, reply, err)
	}
	if n := cc.opened.Load(); n != 2 {
		t.Fatalf("owner accepted %d connections, want 2 (the stale one was not tried)", n)
	}
	if st := c.Stats(); st.ForwardErrors != 0 {
		t.Fatalf("a stale connection counted as a forward error: %+v", st)
	}
	for _, st := range c.Health() {
		if !st.Healthy {
			t.Fatalf("a stale connection marked %s down", st.Peer)
		}
	}

	owner.Close()
	if _, _, err := forward(t, c, owner.URL, []byte("three")); err == nil {
		t.Fatal("forward to a dead owner succeeded")
	}
	if st := c.Stats(); st.ForwardErrors != 1 {
		t.Fatalf("dead owner: %+v, want one forward error", st)
	}
	if c.Owner("any") == owner.URL {
		t.Fatal("a dead owner is still on the live ring")
	}
}

// TestPeerConnectionBound: 200 forwards at once to an owner that holds
// every reply never open more than maxPeerConns connections to it; the
// calls beyond the bound wait for a connection and all 200 succeed.
func TestPeerConnectionBound(t *testing.T) {
	const calls = 200
	release := make(chan struct{})
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	var inflight, peak atomic.Int64
	owner, cc := newOwner(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inflight.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		<-release
		inflight.Add(-1)
		echo(w, r)
	}))
	t.Cleanup(free) // before the owner's Close, which waits for its handlers
	c := newFront(t, owner.URL)

	var wg sync.WaitGroup
	errs := make(chan error, calls)
	for i := range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := []byte(fmt.Sprint(i))
			status, reply, err := forward(t, c, owner.URL, body)
			if err == nil && (status != http.StatusOK || !bytes.HasSuffix(reply, append([]byte("|"), body...))) {
				err = fmt.Errorf("call %d: status %d, %q", i, status, reply)
			}
			errs <- err
		}()
	}
	waitFor(t, "the bound to fill", func() bool { return inflight.Load() >= maxPeerConns })
	time.Sleep(50 * time.Millisecond) // room for a call to dial past the bound
	if open, _ := c.peers[owner.URL].counts(); open != maxPeerConns || inflight.Load() != maxPeerConns {
		t.Fatalf("%d connections open, %d replies held with the bound full, want %d", open, inflight.Load(), maxPeerConns)
	}
	free()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if p, n := peak.Load(), cc.opened.Load(); p > maxPeerConns || n > maxPeerConns {
		t.Fatalf("%d replies held at once over %d connections, want <= %d", p, n, maxPeerConns)
	}
	if open, idle := c.peers[owner.URL].counts(); open != idle || open > maxPeerConns {
		t.Fatalf("after the burst: %d open, %d idle", open, idle)
	}
	if st := c.Stats(); st.ForwardErrors != 0 {
		t.Fatalf("%+v", st)
	}
}

// TestPeerCancelledCall: a caller that hangs up — while the owner has
// not answered, or in the middle of its reply — ends the call at once.
// The connection is closed, not pooled, the owner is not marked down,
// and no goroutine is left behind.
func TestPeerCancelledCall(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	owner, cc := newOwner(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // so that a hang-up cancels r.Context()
		switch r.URL.Path {
		case "/done":
			return
		case "/mid-reply":
			w.Header().Set("Content-Length", "100")
			w.Write([]byte("0123456789"))
			w.(http.Flusher).Flush()
		}
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(free)
	c := newFront(t, owner.URL)
	p := c.peers[owner.URL]
	base := runtime.NumGoroutine()

	// Hung up before the reply.
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	if _, err := c.Forward(ctx, owner.URL, "/slow", "application/json", []byte("x"), later()); err == nil {
		t.Fatal("a cancelled forward succeeded")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("the cancelled forward took %v", d)
	}

	// Hung up in the middle of the reply body.
	ctx, cancel = context.WithCancel(context.Background())
	resp, err := c.Forward(ctx, owner.URL, "/mid-reply", "application/json", []byte("x"), later())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	if _, err := io.ReadFull(resp.Body, buf); err != nil {
		t.Fatal(err)
	}
	time.AfterFunc(50*time.Millisecond, cancel)
	if _, err := io.ReadAll(resp.Body); err == nil {
		t.Fatal("the reply of a cancelled forward read to its end")
	}
	resp.Body.Close()

	// Hung up after the reply was read, before it was closed: the
	// cancellation may still move the deadline, so the connection is
	// not pooled either.
	ctx, cancel = context.WithCancel(context.Background())
	resp, err = c.Forward(ctx, owner.URL, "/done", "application/json", []byte("x"), later())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()

	if open, idle := p.counts(); open != 0 || idle != 0 {
		t.Fatalf("after three cancelled calls: %d open, %d idle, want none", open, idle)
	}
	if st := c.Stats(); st.ForwardErrors != 1 {
		t.Fatalf("%+v, want the call cancelled before its reply counted once", st)
	}
	for _, st := range c.Health() {
		if !st.Healthy {
			t.Fatalf("a caller's hang-up marked %s down", st.Peer)
		}
	}
	free()
	waitFor(t, "the owner to see the three connections end", func() bool { return cc.closed.Load() == 3 })
	waitFor(t, "no goroutine left", func() bool { return runtime.NumGoroutine() <= base })
}

// TestPeerForwardDeadline: an owner that stalls past a forward's
// deadline ends the call at the deadline, not before and not much
// after. The connection is closed, not pooled. The owner is marked
// down while the caller still waits, and not when the caller's own
// context ended the call first, which says nothing about the owner.
func TestPeerForwardDeadline(t *testing.T) {
	const (
		budget  = 200 * time.Millisecond
		epsilon = 100 * time.Millisecond
	)
	release := make(chan struct{})
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	owner, cc := newOwner(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // so that a hang-up cancels r.Context()
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(free)
	c := newFront(t, owner.URL)
	p := c.peers[owner.URL]
	healthy := func() bool { return !slices.Contains(c.Health(), PeerStatus{Peer: owner.URL}) }

	// The caller waits: the deadline ends the call and condemns the owner.
	start := time.Now()
	_, err := c.Forward(context.Background(), owner.URL, "/v1/solve", "application/json", []byte("x"), start.Add(budget))
	elapsed := time.Since(start)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("a forward past its deadline: %v, want a deadline error", err)
	}
	if elapsed < budget || elapsed > budget+epsilon {
		t.Fatalf("the forward failed after %v, want within [%v, %v]", elapsed, budget, budget+epsilon)
	}
	if open, idle := p.counts(); open != 0 || idle != 0 {
		t.Fatalf("after the deadline: %d open, %d idle, want none", open, idle)
	}
	waitFor(t, "the owner to see the connection end", func() bool { return cc.closed.Load() == 1 })
	if healthy() {
		t.Fatal("an owner stalled past the deadline is still healthy")
	}

	// The caller's context ends first: the call ends with it, and the
	// owner keeps its health.
	c.MarkPeer(owner.URL, true)
	ctx, cancel := context.WithTimeout(context.Background(), budget/2)
	defer cancel()
	start = time.Now()
	if _, err := c.Forward(ctx, owner.URL, "/v1/solve", "application/json", []byte("x"), start.Add(budget)); err == nil {
		t.Fatal("a forward whose caller gave up succeeded")
	}
	if elapsed := time.Since(start); elapsed > budget/2+epsilon {
		t.Fatalf("the forward outlived its caller's context by %v", elapsed-budget/2)
	}
	if open, idle := p.counts(); open != 0 || idle != 0 {
		t.Fatalf("after the caller's deadline: %d open, %d idle, want none", open, idle)
	}
	waitFor(t, "the owner to see the second connection end", func() bool { return cc.closed.Load() == 2 })
	if !healthy() {
		t.Fatal("a call its caller ended marked the owner down")
	}
	if st := c.Stats(); st.Forwards != 2 || st.ForwardErrors != 2 {
		t.Fatalf("%+v, want two forwards, both errors", st)
	}
}

// TestPeerConcurrentForwards: 16 goroutines forward to two owners at
// once, over framed and chunked replies of many sizes, and every reply
// is byte-identical to the one the owner gives when asked directly.
func TestPeerConcurrentForwards(t *testing.T) {
	a, _ := newOwner(t, echo)
	b, _ := newOwner(t, echo)
	owners := []string{a.URL, b.URL}
	c := newFront(t, owners...)

	bodies := make([][]byte, 32)
	direct := make([][2][]byte, len(bodies))
	for i := range bodies {
		// Up to ≈ 12 KB: replies under 2 KB come length-framed, longer
		// ones chunked.
		bodies[i] = bytes.Repeat([]byte{byte('a' + i%26)}, 1+i*i*12)
		for j, o := range owners {
			resp, err := http.Post(o+"/v1/solve", "application/json", bytes.NewReader(bodies[i]))
			if err != nil {
				t.Fatal(err)
			}
			direct[i][j], _ = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := range 16 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 4 * len(bodies) {
				i, j := (g+k)%len(bodies), (g+k/len(bodies))%2
				_, reply, err := forward(t, c, owners[j], bodies[i])
				if err == nil && !bytes.Equal(reply, direct[i][j]) {
					err = fmt.Errorf("goroutine %d: body %d via %s: %d bytes differ from the direct %d",
						g, i, owners[j], len(reply), len(direct[i][j]))
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := c.Stats(); st.ForwardErrors != 0 || st.Forwards != 16*4*int64(len(bodies)) {
		t.Fatalf("%+v", st)
	}
}

// TestPeerIdleTimeout: a connection idle past the idle timeout is
// closed, by the next call that finds it or by the sweep the health
// loop runs before each probe, and never reused.
func TestPeerIdleTimeout(t *testing.T) {
	owner, cc := newOwner(t, echo)
	c := newFront(t, owner.URL)
	p := c.peers[owner.URL]
	age := func() {
		p.mu.Lock()
		for _, pc := range p.idle {
			pc.idleAt = pc.idleAt.Add(-peerIdleTimeout)
		}
		p.mu.Unlock()
	}
	for range 2 {
		if _, _, err := forward(t, c, owner.URL, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if n := cc.opened.Load(); n != 1 {
		t.Fatalf("two forwards opened %d connections, want 1", n)
	}
	age()
	if _, _, err := forward(t, c, owner.URL, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if n := cc.opened.Load(); n != 2 {
		t.Fatalf("an expired connection was reused: %d opened, want 2", n)
	}
	waitFor(t, "the expired connection to close", func() bool { return cc.closed.Load() == 1 })

	age()
	p.closeExpired()
	if open, idle := p.counts(); open != 0 || idle != 0 {
		t.Fatalf("after the sweep: %d open, %d idle, want none", open, idle)
	}
	waitFor(t, "the sweep to close the expired connection", func() bool { return cc.closed.Load() == 2 })
}

// TestPeerReuseRule: a connection goes back to the pool only after a
// reply read to its end that did not ask to close; each other ending
// closes it.
func TestPeerReuseRule(t *testing.T) {
	raw := func(reply string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			conn, bw, err := w.(http.Hijacker).Hijack()
			if err != nil {
				panic(err)
			}
			bw.WriteString(reply)
			bw.Flush()
			conn.Close()
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/ok", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("ok")) })
	mux.HandleFunc("/chunked", func(w http.ResponseWriter, r *http.Request) {
		w.Write(bytes.Repeat([]byte("c"), 10_000))
	})
	mux.HandleFunc("/close", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Connection", "close")
		w.Write([]byte("ok"))
	})
	mux.HandleFunc("/5xx", func(w http.ResponseWriter, r *http.Request) { http.Error(w, "busy", 503) })
	mux.HandleFunc("/504", func(w http.ResponseWriter, r *http.Request) { http.Error(w, "timeout", 504) })
	mux.HandleFunc("/5xx-long", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(500)
		w.Write(bytes.Repeat([]byte("e"), 100_000))
	})
	mux.HandleFunc("/4xx", func(w http.ResponseWriter, r *http.Request) { http.Error(w, "bad", 400) })
	mux.HandleFunc("/unframed", raw("HTTP/1.1 200 OK\r\n\r\nno length"))
	mux.HandleFunc("/1xx", raw("HTTP/1.1 103 Early Hints\r\nLink: </a>\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"))
	owner, _ := newOwner(t, mux)

	for _, tc := range []struct {
		path    string
		readAll bool // false: read one byte, then close
		fails   bool // Forward returns an error
		pooled  bool
	}{
		{"/ok", true, false, true},
		{"/chunked", true, false, true},
		{"/4xx", true, false, true},
		{"/5xx", true, true, true},  // drained to its end by Forward
		{"/504", true, false, true}, // relayed like a 4xx
		{"/ok", false, false, false},
		{"/chunked", false, false, false},
		{"/close", true, false, false},
		{"/5xx-long", true, true, false},
		{"/unframed", true, false, false},
		{"/1xx", true, true, false},
	} {
		c := newFront(t, owner.URL)
		resp, err := c.Forward(context.Background(), owner.URL, tc.path, "text/plain", []byte("x"), later())
		if (err != nil) != tc.fails {
			t.Fatalf("%s: error %v, want failure %v", tc.path, err, tc.fails)
		}
		if err == nil {
			if tc.readAll {
				_, err = io.ReadAll(resp.Body)
			} else {
				_, err = resp.Body.Read(make([]byte, 1))
			}
			if err != nil {
				t.Fatalf("%s: %v", tc.path, err)
			}
			resp.Body.Close()
		}
		want := 0
		if tc.pooled {
			want = 1
		}
		if open, idle := c.peers[owner.URL].counts(); open != want || idle != want {
			t.Errorf("%s (read to end %v): %d open, %d idle, want %d pooled", tc.path, tc.readAll, open, idle, want)
		}
	}
}

// TestPeerRequest: a forward carries the body, the content type, the
// forwarded mark and the path under the peer's base URL.
func TestPeerRequest(t *testing.T) {
	got := make(chan *http.Request, 1)
	owner, _ := newOwner(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		got <- r
	}))
	base := owner.URL + "/prefix"
	c := newFront(t, base)
	if _, _, err := forward(t, c, base, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	r := <-got
	body, _ := io.ReadAll(r.Body)
	if r.Method != http.MethodPost || r.URL.Path != "/prefix/v1/solve" || string(body) != "payload" ||
		r.ContentLength != 7 || r.Header.Get("Content-Type") != "application/json" ||
		r.Header.Get(ForwardedHeader) != "http://self.invalid" || !strings.HasPrefix(owner.URL, "http://"+r.Host) {
		t.Fatalf("owner saw %s %s (host %s, %d bytes %q, headers %v)", r.Method, r.URL, r.Host, r.ContentLength, body, r.Header)
	}
}

// TestPeerDialAddress: a base URL without a port dials port 80, as
// http.Transport did, and its host is the Host header as written.
func TestPeerDialAddress(t *testing.T) {
	for _, tc := range []struct{ url, host, addr string }{
		{"http://10.0.0.1", "10.0.0.1", "10.0.0.1:80"},
		{"http://b", "b", "b:80"},
		{"http://b:", "b", "b:80"},
		{"http://b:8080/prefix", "b:8080", "b:8080"},
		{"http://[::1]", "[::1]", "[::1]:80"},
		{"http://[::1]:9000", "[::1]:9000", "[::1]:9000"},
	} {
		u, err := parsePeerURL(tc.url)
		if err != nil {
			t.Fatalf("%s: %v", tc.url, err)
		}
		if p := newPeer(u); p.host != tc.host || p.addr != tc.addr {
			t.Errorf("%s: host %q, dial %q; want %q, %q", tc.url, p.host, p.addr, tc.host, tc.addr)
		}
	}
}

// TestPeerPortlessForward: a forward to a base URL without a port
// reaches the owner listening on port 80. Where port 80 cannot be
// bound, TestPeerDialAddress alone checks the address.
func TestPeerPortlessForward(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:80")
	if err != nil {
		t.Skipf("cannot listen on 127.0.0.1:80: %v", err)
	}
	srv := httptest.NewUnstartedServer(echo)
	srv.Listener.Close()
	srv.Listener = ln
	srv.Start()
	t.Cleanup(srv.Close)
	const owner = "http://127.0.0.1"
	c := newFront(t, owner)
	status, reply, err := forward(t, c, owner, []byte("payload"))
	if err != nil || status != http.StatusOK || !strings.HasSuffix(string(reply), " 127.0.0.1|payload") {
		t.Fatalf("forward to %s: %d %q, %v", owner, status, reply, err)
	}
}

// TestPeerHeadMatchesRequestWrite: the head a peer call appends is, byte
// for byte, what (*http.Request).Write sends for the request the
// transport once built — Host punycoded and without its zone, the base
// path escaped, Go's User-Agent, a Content-Length on every POST — for
// every kind of call, on base URLs of every shape parsePeerURL takes.
func TestPeerHeadMatchesRequestWrite(t *testing.T) {
	calls := []call{
		{method: http.MethodPost, path: "/v1/solve", contentType: "application/json", forwarded: "http://self.invalid:8080"},
		{method: http.MethodPost, path: "/v1/simulate", contentType: "application/json", forwarded: "http://a"},
		{method: http.MethodGet, path: "/v1/cluster"},
	}
	for _, base := range []string{
		"http://127.0.0.1:8081",
		"http://b:",
		"http://b:8080/prefix",
		"http://[::1]:9000/a%20b/",
		"http://[fe80::1%25eth0]:8080",
		"http://bücher.example/x",
		"http://UPPER.example:80",
	} {
		u, err := parsePeerURL(base)
		if err != nil {
			t.Fatalf("%s: %v", base, err)
		}
		p := newPeer(u)
		for _, cl := range calls {
			for _, body := range [][]byte{nil, []byte(`{"problem":"masterslave"}`)} {
				if cl.method == http.MethodGet && body != nil {
					continue
				}
				req := &http.Request{
					Method: cl.method,
					URL:    &url.URL{Scheme: "http", Host: p.host, Path: u.Path + cl.path},
					Header: http.Header{},
					Host:   p.host,
				}
				if cl.contentType != "" {
					req.Header.Set("Content-Type", cl.contentType)
				}
				if cl.forwarded != "" {
					req.Header.Set(ForwardedHeader, cl.forwarded)
				}
				if len(body) > 0 {
					req.Body = io.NopCloser(bytes.NewReader(body))
					req.ContentLength = int64(len(body))
				}
				var want bytes.Buffer
				if err := req.Write(&want); err != nil {
					t.Fatalf("%s %s: Write: %v", base, cl.path, err)
				}
				if got := append(p.appendHead(nil, &cl, len(body)), body...); !bytes.Equal(got, want.Bytes()) {
					t.Errorf("%s %s %s:\nappended %q\nWrite    %q", base, cl.method, cl.path, got, want.Bytes())
				}
			}
		}
	}
}

// TestPeerReplyHeadsCounted: an owner's plain reply is read by the
// scanner, and one it declines — here a chunked reply — by
// http.ReadResponse, each counted under its reader once SetObs has run.
func TestPeerReplyHeadsCounted(t *testing.T) {
	owner, _ := newOwner(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if string(body) == "chunked" {
			w.Write([]byte("part, "))
			w.(http.Flusher).Flush()
		}
		w.Write(body)
	}))
	c := newFront(t, owner.URL)
	reg := obs.New()
	c.SetObs(reg)
	for _, body := range []string{"plain", "plain", "chunked"} {
		status, reply, err := forward(t, c, owner.URL, []byte(body))
		if err != nil || status != http.StatusOK || !strings.HasSuffix(string(reply), body) {
			t.Fatalf("forward %q: %d %q, %v", body, status, reply, err)
		}
	}
	paths := reg.CounterVec("steady_cluster_reply_head_decode_total", "", "path")
	if scan, strict := paths.With("scan").Value(), paths.With("strict").Value(); scan != 2 || strict != 1 {
		t.Fatalf("scan %d, strict %d; want 2, 1", scan, strict)
	}
}
