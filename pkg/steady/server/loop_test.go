package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/httphead"
	"repro/pkg/steady/platform"
)

// reply is one HTTP response as the tests compare it: Date dropped, a
// Content-Length checked against its body and then kept only as
// present, and the per-request solve fields (cache_hit, elapsed_us)
// masked in the body.
type reply struct {
	Proto            string
	Status           int
	Header           http.Header
	TransferEncoding []string
	Close            bool
	Body             string
}

var volatileFields = regexp.MustCompile(`"(cache_hit|elapsed_us)":\s*[a-z0-9]+`)

// readReply reads one response to a request of the given method off br.
// With stream set it reads the body only up to its first SSE event.
func readReply(t *testing.T, br *bufio.Reader, method string, stream bool) reply {
	t.Helper()
	resp, err := http.ReadResponse(br, &http.Request{Method: method})
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	var body []byte
	if stream {
		sc := bufio.NewReader(resp.Body)
		for {
			line, err := sc.ReadString('\n')
			if err != nil {
				t.Fatalf("read event: %v", err)
			}
			body = append(body, line...)
			if line == "\n" && bytes.Contains(body, []byte("data:")) {
				break
			}
		}
	} else if body, err = io.ReadAll(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	h := resp.Header.Clone()
	h.Del("Date")
	if cl := h.Get("Content-Length"); cl != "" {
		if method != http.MethodHead && cl != fmt.Sprint(len(body)) {
			t.Fatalf("Content-Length %s on a body of %d bytes", cl, len(body))
		}
		h.Set("Content-Length", "present")
	}
	return reply{
		Proto:            resp.Proto,
		Status:           resp.StatusCode,
		Header:           h,
		TransferEncoding: resp.TransferEncoding,
		Close:            resp.Close,
		Body:             volatileFields.ReplaceAllString(string(body), `"$1": _`),
	}
}

// closedAfter reports whether the server closed the connection after
// its replies.
func closedAfter(br *bufio.Reader, c net.Conn) bool {
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	_, err := br.ReadByte()
	return err == io.EOF || errors.Is(err, net.ErrClosed) || isReset(err)
}

func isReset(err error) bool {
	return err != nil && strings.Contains(err.Error(), "connection reset")
}

func post(path string, body []byte, extra string) string {
	return fmt.Sprintf("POST %s HTTP/1.1\r\nHost: steadyd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n%s\r\n%s", path, len(body), extra, body)
}

func get(method, path, extra string) string {
	return fmt.Sprintf("%s %s HTTP/1.1\r\nHost: steadyd\r\n%s\r\n", method, path, extra)
}

func chunked(body []byte) string {
	var b strings.Builder
	for len(body) > 0 {
		n := min(len(body), 700)
		fmt.Fprintf(&b, "%x\r\n%s\r\n", n, body[:n])
		body = body[n:]
	}
	b.WriteString("0\r\n\r\n")
	return b.String()
}

// TestServeMatchesNetHTTP serves one Server through its own connection
// loop and through net/http (httptest.NewServer(Handler())), sends each
// row's bytes to both, and requires the same replies: status, protocol,
// headers but Date, framing, connection close, and body (modulo the
// per-request solve fields). The loop side goes first, so a row that
// solves is a miss there.
func TestServeMatchesNetHTTP(t *testing.T) {
	const bodyLimit = 32 << 10
	s := New(Config{MaxBodyBytes: bodyLimit, MaxInFlight: 1, QueueWait: 20 * time.Millisecond})
	t.Cleanup(s.Close)
	// No service route answers 204: this one is the "204" row's.
	s.Route("GET /v1/nocontent", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusNoContent) })
	loop := ServeLoop(t, s)
	ref := httptest.NewServer(s.Handler())
	t.Cleanup(ref.Close)

	fig1 := mustSolveBody(t, SolveRequest{Problem: "masterslave", Root: "P1"}, platform.Figure1())
	warm := httptest.NewRecorder()
	s.Handler().ServeHTTP(warm, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(fig1)))
	if warm.Code != http.StatusOK {
		t.Fatalf("warm-up solve: %d %s", warm.Code, warm.Body)
	}
	d := DeploymentRequest{ID: "demo"}
	if err := json.Unmarshal(fig1, &d.SolveRequest); err != nil {
		t.Fatal(err)
	}
	deploy, _ := json.Marshal(d)
	created := httptest.NewRecorder()
	s.Handler().ServeHTTP(created, httptest.NewRequest(http.MethodPost, "/v1/deployments", bytes.NewReader(deploy)))
	if created.Code != http.StatusOK {
		t.Fatalf("create deployment: %d %s", created.Code, created.Body)
	}
	fresh := func(seed int64) []byte {
		p := platform.RandomConnected(rand.New(rand.NewSource(seed)), 8, 8, 5, 5, 0.15)
		return mustSolveBody(t, SolveRequest{Problem: "masterslave", Root: p.Name(0)}, p)
	}
	sweep, _ := json.Marshal(SweepRequest{Problem: "masterslave", Generator: &Generator{Count: 3, Seed: 5}})
	saturated := fresh(2)

	type step struct {
		send      string
		method    string // of the reply to read
		stream    bool   // read the first SSE event only
		sortLines bool
	}
	rows := []struct {
		name   string
		steps  []step
		closes bool
		before func()
		after  func()
	}{
		{name: "hit", steps: []step{{send: post("/v1/solve", fig1, ""), method: "POST"}}},
		{name: "miss", steps: []step{{send: post("/v1/solve", fresh(1), ""), method: "POST"}}},
		{name: "400", steps: []step{{send: post("/v1/solve", []byte(`{"problem":"masterslave"}`), ""), method: "POST"}}},
		{name: "404", steps: []step{{send: get("GET", "/v1/nope", ""), method: "GET"}}},
		{name: "405", steps: []step{{send: get("DELETE", "/v1/solve", ""), method: "DELETE"}}},
		{name: "413", steps: []step{{send: post("/v1/solve", bytes.Repeat([]byte(" "), 4*bodyLimit), ""), method: "POST"}}},
		{name: "413 past the drain", steps: []step{{send: post("/v1/solve", bytes.Repeat([]byte(" "), maxDrainBytes+2*bodyLimit), ""), method: "POST"}}, closes: true},
		{
			name:  "503",
			steps: []step{{send: post("/v1/solve", saturated, ""), method: "POST"}},
			before: func() {
				for range cap(s.sem) {
					s.sem <- struct{}{}
				}
			},
			after: func() {
				for range cap(s.sem) {
					<-s.sem
				}
			},
		},
		{name: "204", steps: []step{{send: get("GET", "/v1/nocontent?solver=nosuch", ""), method: "GET"}}},
		{name: "watch", steps: []step{{send: get("GET", "/v1/deployments/demo/watch", ""), method: "GET", stream: true}}},
		{name: "ndjson sweep", steps: []step{{send: post("/v1/sweep", sweep, ""), method: "POST", sortLines: true}}},
		{name: "HEAD", steps: []step{{send: get("HEAD", "/v1/healthz", ""), method: "HEAD"}}},
		{name: "chunked body", steps: []step{{
			send:   "POST /v1/solve HTTP/1.1\r\nHost: steadyd\r\nTransfer-Encoding: chunked\r\n\r\n" + chunked(fig1),
			method: "POST",
		}}},
		{name: "100-continue", steps: []step{
			{send: fmt.Sprintf("POST /v1/solve HTTP/1.1\r\nHost: steadyd\r\nContent-Length: %d\r\nExpect: 100-continue\r\n\r\n", len(fig1)), method: "POST"},
			{send: string(fig1), method: "POST"},
		}},
		{name: "417", steps: []step{{send: post("/v1/solve", fig1, "Expect: something-else\r\n"), method: "POST"}}, closes: true},
		{name: "Connection: close", steps: []step{{send: get("GET", "/v1/healthz", "Connection: close\r\n"), method: "GET"}}, closes: true},
		{name: "HTTP/1.0", steps: []step{{send: "GET /v1/healthz HTTP/1.0\r\n\r\n", method: "GET"}}, closes: true},
		{name: "HTTP/1.0 keep-alive", steps: []step{{send: "GET /v1/solvers HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", method: "GET"}}},
		{name: "pipelined", steps: []step{
			{send: get("GET", "/v1/healthz", "") + post("/v1/solve", fig1, ""), method: "GET"},
			{method: "POST"},
		}},
		{name: "1 MiB header", steps: []step{{send: "GET /v1/healthz HTTP/1.1\r\nHost: steadyd\r\nX-Big: " + strings.Repeat("a", 1<<20) + "\r\n\r\n", method: "GET"}}},
		{name: "431", steps: []step{{send: "GET /v1/healthz HTTP/1.1\r\nHost: steadyd\r\nX-Big: " + strings.Repeat("a", maxHeaderBytes) + "\r\n\r\n", method: "GET"}}, closes: true},
	}
	exchange := func(t *testing.T, addr string, steps []step, closes bool) []reply {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		br := bufio.NewReader(c)
		var out []reply
		for _, st := range steps {
			if st.send != "" {
				// A server may stop reading before a long request ends.
				go c.Write([]byte(st.send))
			}
			r := readReply(t, br, st.method, st.stream)
			if st.sortLines {
				// Sweep records stream in completion order.
				lines := strings.SplitAfter(r.Body, "\n")
				slices.Sort(lines)
				r.Body = strings.Join(lines, "")
			}
			out = append(out, r)
		}
		// A body that ran to the connection's end has shown the close.
		last := out[len(out)-1]
		delimited := last.Header.Get("Content-Length") != "" || last.TransferEncoding != nil
		if closes && delimited && !closedAfter(br, c) {
			t.Errorf("%s kept the connection open", addr)
		}
		return out
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if row.before != nil {
				row.before()
				defer row.after()
			}
			got := exchange(t, loop.Addr, row.steps, row.closes)
			want := exchange(t, ref.Listener.Addr().String(), row.steps, row.closes)
			for i := range got {
				g, _ := json.MarshalIndent(got[i], "", "  ")
				w, _ := json.MarshalIndent(want[i], "", "  ")
				if !bytes.Equal(g, w) {
					t.Errorf("reply %d differs\nloop:\n%s\nnet/http:\n%s", i, g, w)
				}
			}
		})
	}
}

// waitConns waits until the loop holds no connection, and reports
// whether it got there.
func waitConns(s *Server, within time.Duration) bool {
	for deadline := time.Now().Add(within); ; time.Sleep(5 * time.Millisecond) {
		s.serving.mu.Lock()
		n := len(s.serving.conns)
		s.serving.mu.Unlock()
		if n == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
	}
}

// FuzzServeConn writes arbitrary bytes to a live loop and half-closes
// the connection: the server must not panic, every byte it answers
// must parse as a sequence of HTTP responses, and the connection's
// goroutine must be gone afterwards.
func FuzzServeConn(f *testing.F) {
	fig1 := mustSolveBody(f, SolveRequest{Problem: "masterslave", Root: "P1"}, platform.Figure1())
	for _, seed := range []string{
		get("GET", "/v1/healthz", ""),
		get("HEAD", "/v1/healthz", "") + get("GET", "/v1/solvers", ""),
		post("/v1/solve", fig1, ""),
		post("/v1/solve", fig1, "Expect: 100-continue\r\n"),
		"POST /v1/solve HTTP/1.1\r\nHost: steadyd\r\nTransfer-Encoding: chunked\r\n\r\n" + chunked(fig1),
		"GET /v1/healthz HTTP/1.0\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: a\r\nContent-Length: 5\r\n\r\nab",
		"GET / HTTP/1.1\r\nHost: a\r\nTransfer-Encoding: gzip\r\n\r\n",
		"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n",
		"GET /v1/healthz HTTP/1.1\r\n\r\n",
		"\x00\xff garbage\r\n\r\n",
		"HEAD * HTTP/0.0\n\n", // refused whatever the method: the body runs to the close
	} {
		f.Add([]byte(seed))
	}
	s := New(Config{SolveTimeout: time.Second, MaxSweepJobs: 4, MaxBodyBytes: 64 << 10})
	f.Cleanup(s.Close)
	loop := ServeLoop(f, s)
	f.Fuzz(func(t *testing.T, data []byte) {
		// The requests the input holds, in order, so a reply to HEAD is
		// read without a body.
		var methods []string
		for br := bufio.NewReader(bytes.NewReader(data)); ; {
			req, err := http.ReadRequest(br)
			if err != nil {
				break
			}
			methods = append(methods, req.Method)
			if _, err := io.Copy(io.Discard, req.Body); err != nil {
				break
			}
		}
		c, err := net.Dial("tcp", loop.Addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		go func() {
			c.Write(data)
			c.(*net.TCPConn).CloseWrite()
		}()
		c.SetReadDeadline(time.Now().Add(10 * time.Second))
		br := bufio.NewReader(c)
		for i := 0; ; i++ {
			if _, err := br.Peek(1); err != nil {
				if err != io.EOF && !isReset(err) {
					t.Fatalf("after %d replies: %v", i, err)
				}
				break
			}
			method := "GET"
			if i < len(methods) {
				method = methods[i]
			}
			resp, err := http.ReadResponse(br, &http.Request{Method: method})
			if err != nil {
				t.Fatalf("reply %d does not parse: %v", i, err)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil && !isReset(err) {
				t.Fatalf("reply %d body: %v", i, err)
			}
			resp.Body.Close()
			if method == http.MethodHead && resp.Close && resp.Header.Get("Content-Length") == "" {
				// A request the loop could not serve — refused whatever
				// its method — gets a reply whose body runs to the close.
				if _, err := io.Copy(io.Discard, br); err != nil && !isReset(err) {
					t.Fatalf("reply %d body: %v", i, err)
				}
				break
			}
		}
		c.Close()
		if !waitConns(s, 5*time.Second) {
			t.Fatal("the connection's goroutine outlived it")
		}
	})
}

// TestServeHangUpStopsMiss: a client that hangs up while its miss
// solves cancels the solve through the request's context — the hang-up
// watch the solve's deadline started — and the slot is free at once.
func TestServeHangUpStopsMiss(t *testing.T) {
	s := New(Config{MaxInFlight: 1, SolveTimeout: time.Minute, QueueWait: 100 * time.Millisecond})
	t.Cleanup(s.Close)
	loop := ServeLoop(t, s)
	big := platform.RandomConnected(rand.New(rand.NewSource(7)), 64, 1100, 5, 5, 0.15)
	body := mustSolveBody(t, SolveRequest{Problem: "broadcast", Root: big.Name(0)}, big)
	c, err := net.Dial("tcp", loop.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(c, post("/v1/solve", body, "")); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); len(s.sem) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the solve never took its slot")
		}
	}
	hungUp := time.Now()
	c.Close()
	for len(s.sem) != 0 || s.cache.Stats().InFlight != 0 {
		if time.Since(hungUp) > 2*time.Second {
			t.Fatalf("2s after the hang-up: %d slots in use, %d solves in flight", len(s.sem), s.cache.Stats().InFlight)
		}
		time.Sleep(time.Millisecond)
	}
	t.Logf("slot free %v after the hang-up", time.Since(hungUp))
	// The slot serves the next miss.
	resp, err := http.Post(loop.URL+"/v1/solve", "application/json", bytes.NewReader(mustSolveBody(t, SolveRequest{Problem: "masterslave", Root: "P1"}, platform.Figure1())))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("next miss: status %d", resp.StatusCode)
	}
}

// TestShutdownWaitsForInFlightSolve: Shutdown refuses new connections
// at once, lets a solve in flight answer, and returns after it.
func TestShutdownWaitsForInFlightSolve(t *testing.T) {
	const timeout = 400 * time.Millisecond
	s := New(Config{MaxInFlight: 1, SolveTimeout: timeout})
	t.Cleanup(s.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()
	url := "http://" + ln.Addr().String()

	big := platform.RandomConnected(rand.New(rand.NewSource(7)), 64, 1100, 5, 5, 0.15)
	body := mustSolveBody(t, SolveRequest{Problem: "broadcast", Root: big.Name(0)}, big)
	answered := make(chan int, 1)
	go func() {
		resp, err := http.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			answered <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		answered <- resp.StatusCode
	}()
	for deadline := time.Now().Add(10 * time.Second); len(s.sem) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the solve never took its slot")
		}
	}
	shut := make(chan error, 1)
	go func() { shut <- s.Shutdown(context.Background()) }()
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			break // refused
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("the listener still accepts during Shutdown")
		}
	}
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned %v with a solve in flight", err)
	default:
	}
	if code := <-answered; code != http.StatusGatewayTimeout {
		t.Fatalf("in-flight solve answered %d, want its 504", code)
	}
	select {
	case err := <-shut:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return after the last reply")
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v", err)
	}
	if err := s.Serve(ln); err != http.ErrServerClosed {
		t.Fatalf("Serve after Shutdown returned %v", err)
	}
}

// TestServeHeaderTrickle: headers that are still arriving 5s after
// their first byte are dropped without a reply, while a connection
// idle between requests is not timed out at all.
func TestServeHeaderTrickle(t *testing.T) {
	t.Parallel()
	s := New(Config{})
	t.Cleanup(s.Close)
	loop := ServeLoop(t, s)

	idle, err := net.Dial("tcp", loop.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()

	c, err := net.Dial("tcp", loop.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	io.WriteString(c, "GET /v1/healthz HTTP/1.1\r\n")
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for tick := time.NewTicker(500 * time.Millisecond); ; {
			select {
			case <-stop:
				tick.Stop()
				return
			case <-tick.C:
				io.WriteString(c, "X-Slow: 1\r\n")
			}
		}
	}()
	c.SetReadDeadline(time.Now().Add(15 * time.Second))
	n, err := c.Read(make([]byte, 1))
	if n != 0 || !(err == io.EOF || isReset(err)) {
		t.Fatalf("trickled headers: read %d bytes, %v; want the connection dropped", n, err)
	}
	if d := time.Since(start); d < headerTimeout || d > headerTimeout+2*time.Second {
		t.Fatalf("dropped after %v, want %v after the first byte", d, headerTimeout)
	}

	// The connection opened before, idle all along, still serves.
	io.WriteString(idle, get("GET", "/v1/healthz", ""))
	idle.SetReadDeadline(time.Now().Add(5 * time.Second))
	if r := readReply(t, bufio.NewReader(idle), "GET", false); r.Status != http.StatusOK {
		t.Fatalf("idle connection: status %d", r.Status)
	}
}

// TestServeRecoversPanics: a handler that panics before writing gets a
// JSON 500 and its connection closed, and is counted; one that panics
// after committing its reply has the connection cut; http.ErrAbortHandler
// closes the connection and is neither answered nor counted.
func TestServeRecoversPanics(t *testing.T) {
	s := New(Config{})
	t.Cleanup(s.Close)
	s.Route("GET /test/panic", func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("how") {
		case "abort":
			panic(http.ErrAbortHandler)
		case "late":
			w.Header().Set("Content-Length", "100")
			w.Write([]byte("partial"))
			panic("late")
		}
		w.Header().Set("X-Dropped", "1")
		w.Write([]byte("dropped")) // held, not yet sent
		panic("early")
	})
	loop := ServeLoop(t, s)
	dial := func(path string) (net.Conn, *bufio.Reader) {
		c, err := net.Dial("tcp", loop.Addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		io.WriteString(c, get("GET", path, ""))
		return c, bufio.NewReader(c)
	}

	c, br := dial("/test/panic")
	r := readReply(t, br, "GET", false)
	if r.Status != http.StatusInternalServerError || r.Header.Get("Content-Type") != "application/json" ||
		r.Header.Get("X-Dropped") != "" || !r.Close {
		t.Fatalf("early panic: %+v", r)
	}
	var e ErrorResponse
	if err := json.Unmarshal([]byte(r.Body), &e); err != nil || e.Error != errPanic.Error() {
		t.Fatalf("early panic body %q (%v)", r.Body, err)
	}
	if !closedAfter(br, c) {
		t.Fatal("connection open after a panic")
	}

	c, br = dial("/test/panic?how=late")
	resp, err := http.ReadResponse(br, nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("late panic: %v %v", resp, err)
	}
	if b, err := io.ReadAll(resp.Body); err != io.ErrUnexpectedEOF || string(b) != "partial" {
		t.Fatalf("late panic body %q, %v; want the reply cut short", b, err)
	}

	c, br = dial("/test/panic?how=abort")
	if !closedAfter(br, c) || br.Buffered() != 0 {
		t.Fatal("an aborted handler's connection got a reply or stayed open")
	}
	if n := s.panics.Value(); n != 2 {
		t.Fatalf("steady_http_panics_total = %d, want 2", n)
	}
}

// TestEncodeFailedIsJSON: a reply that will not encode is a JSON 500,
// labelled as JSON like every other error reply.
func TestEncodeFailedIsJSON(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"value": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
	var e ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error != "encoding response failed" {
		t.Fatalf("body %q (%v)", rec.Body, err)
	}
}

// TestScannedRequestMatchesReadRequest: the request the loop builds from
// a scanned head is the one http.ReadRequest builds from the same bytes —
// every field a handler reads — and its body yields the same bytes.
func TestScannedRequestMatchesReadRequest(t *testing.T) {
	for _, raw := range []string{
		post("/v1/solve", []byte(`{"problem":"masterslave"}`), ""),
		get(http.MethodGet, "/v1/stats?solver=masterslave", "Connection: close\r\n"),
		get(http.MethodHead, "/", "Expect: 100-continue\r\nUser-Agent: curl/8.5.0\r\n"),
	} {
		var h httphead.Head
		if !httphead.Request([]byte(raw), &h) {
			t.Fatalf("not scanned: %q", raw)
		}
		c := &conn{br: bufio.NewReader(strings.NewReader(raw[h.N:]))}
		got := c.scanned(&h)
		want, err := http.ReadRequest(bufio.NewReader(strings.NewReader(raw)))
		if err != nil {
			t.Fatal(err)
		}
		if got.Context().(*reqCtx).c != c {
			t.Errorf("%q: the request's context is not its connection's", raw)
		}
		gotBody, _ := io.ReadAll(got.Body)
		wantBody, _ := io.ReadAll(want.Body)
		type fields struct {
			Method, Proto, Host, RequestURI string
			ProtoMajor, ProtoMinor          int
			URL                             url.URL
			Header                          http.Header
			ContentLength                   int64
			Close                           bool
			TransferEncoding                []string
			Trailer                         http.Header
			Body                            string
		}
		of := func(r *http.Request, body []byte) fields {
			return fields{r.Method, r.Proto, r.Host, r.RequestURI, r.ProtoMajor, r.ProtoMinor, *r.URL,
				r.Header, r.ContentLength, r.Close, r.TransferEncoding, r.Trailer, string(body)}
		}
		if g, w := of(got, gotBody), of(want, wantBody); !reflect.DeepEqual(g, w) {
			t.Errorf("%q:\nscanned     %+v\nReadRequest %+v", raw, g, w)
		}
	}
}
