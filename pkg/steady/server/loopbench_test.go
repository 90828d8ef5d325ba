package server

// The connection loop's own rulers: keep-alive requests through Serve on
// loopback, sent by a raw client that writes the bytes Go's http.Client
// writes and reads the reply without allocating, so what they count is
// the server's.

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"runtime/debug"
	"slices"
	"strconv"
	"testing"
)

// goClientHead is the head Go's http.Client sends for a POST of n bytes
// of JSON to path on host, as bench/'s client sets it up: Host,
// User-Agent, Content-Length, then the request's own headers in key
// order, then the transport's Accept-Encoding.
func goClientHead(host, path string, n int) string {
	return "POST " + path + " HTTP/1.1\r\nHost: " + host +
		"\r\nUser-Agent: Go-http-client/1.1\r\nContent-Length: " + strconv.Itoa(n) +
		"\r\nContent-Type: application/json\r\nAccept-Encoding: gzip\r\n\r\n"
}

// rawClient is one keep-alive connection that sends a fixed request and
// reads a Content-Length-framed reply off a reader it keeps.
type rawClient struct {
	conn net.Conn
	br   *bufio.Reader
	req  []byte
}

func dialRaw(tb testing.TB, l *Loop, path string, body []byte) *rawClient {
	tb.Helper()
	conn, err := net.Dial("tcp", l.Addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { conn.Close() })
	req := append([]byte(goClientHead(l.Addr, path, len(body))), body...)
	return &rawClient{conn: conn, br: bufio.NewReaderSize(conn, 64<<10), req: req}
}

// do sends the request and reads its reply to the end, returning the
// status code.
func (c *rawClient) do() (int, error) {
	if _, err := c.conn.Write(c.req); err != nil {
		return 0, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	if len(line) < 12 {
		return 0, fmt.Errorf("short status line %q", line)
	}
	code, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, err
	}
	length := -1
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		if len(line) <= 2 {
			break
		}
		if k, v, ok := bytes.Cut(line, []byte(": ")); ok && string(k) == "Content-Length" {
			if length, err = strconv.Atoi(string(bytes.TrimSpace(v))); err != nil {
				return 0, err
			}
		}
	}
	if length < 0 {
		return 0, fmt.Errorf("reply without a Content-Length")
	}
	_, err = c.br.Discard(length)
	return code, err
}

// loopClient serves the request kind names — "hot", a repeated n=16
// /v1/solve that the memo answers, or "telemetry", control_drift's n=10
// batch — through Serve, and returns a client that sends it, already
// answered once.
func loopClient(tb testing.TB, kind string) *rawClient {
	tb.Helper()
	var (
		s    *Server
		path string
		body []byte
	)
	switch kind {
	case "hot":
		body = hot16Body(tb)
		var done func()
		s, done = hotServer(tb, body)
		tb.Cleanup(done)
		path = "/v1/solve"
	case "telemetry":
		s, body = telemetryServer(tb, 10)
		path = telemetryRoute
	default:
		tb.Fatalf("unknown request kind %q", kind)
	}
	c := dialRaw(tb, ServeLoop(tb, s), path, body)
	if code, err := c.do(); err != nil || code != http.StatusOK {
		tb.Fatalf("%s: status %d (%v)", kind, code, err)
	}
	return c
}

// BenchmarkServeLoop is the connection loop's ruler: the hot hit and
// the telemetry batch of BenchmarkServerHandleHot and
// BenchmarkServerHandleTelemetry, but sent over a keep-alive loopback
// connection through Serve, so a request's head, its context and its
// reply's write are in it. Time and allocations are the whole
// process's; the raw client itself allocates nothing per request.
func BenchmarkServeLoop(b *testing.B) {
	for _, kind := range []string{"hot", "telemetry"} {
		b.Run(kind, func(b *testing.B) {
			c := loopClient(b, kind)
			b.ReportAllocs()
			for b.Loop() {
				if code, err := c.do(); err != nil || code != http.StatusOK {
					b.Fatalf("status %d (%v)", code, err)
				}
			}
		})
	}
}

// TestServeLoopAllocations pins what a keep-alive request costs the
// whole process through Serve, beside the handler's own allocations
// (TestHotHitAllocations, TestTelemetryAllocations): 9 for either kind
// of request, of which 5 are its head — one copy of it, the header map
// (two), one array of its values, and one block holding the request,
// its URL and its context. A plain head sent to http.ReadRequest instead
// of the scanner costs 10 more (19 before the scanner), a context or URL
// allocated apart from its request one more each.
func TestServeLoopAllocations(t *testing.T) {
	for _, kind := range []string{"hot", "telemetry"} {
		c := loopClient(t, kind)
		allocs := testing.AllocsPerRun(200, func() {
			if code, err := c.do(); err != nil || code != http.StatusOK {
				t.Fatalf("%s: status %d (%v)", kind, code, err)
			}
		})
		t.Logf("%s: %.0f allocations per request", kind, allocs)
		if info, ok := debug.ReadBuildInfo(); ok && slices.Contains(info.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
			continue // an instrumented binary's pools drop a Put in four
		}
		if allocs > 10 {
			t.Errorf("%s: %.0f allocations per request through Serve, want <= 10", kind, allocs)
		}
	}
}
