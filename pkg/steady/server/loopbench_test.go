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
// (TestHotHitAllocations, TestTelemetryAllocations): nothing for the hot
// hit, and for the telemetry batch only ServeMux's match of its {id}.
// The connection reads each plain head into the block of the one before
// (request, URL, context, header map and values), makes the head's
// strings and the reply's Content-Length once per connection, sets the
// reply's headers in slots of its own, and keeps the status for the
// metrics layer without a wrapper. Any of those made per request again
// costs 1 (the block, the head copy, the wrapper, the length) to 3 (the
// header map and its values), and steady garbage of any size runs the
// collector of a daemon whose live heap sits under the runtime's
// minimum goal.
func TestServeLoopAllocations(t *testing.T) {
	for _, tc := range []struct {
		kind string
		max  float64
	}{{"hot", 0}, {"telemetry", 1}} {
		c := loopClient(t, tc.kind)
		allocs := testing.AllocsPerRun(200, func() {
			if code, err := c.do(); err != nil || code != http.StatusOK {
				t.Fatalf("%s: status %d (%v)", tc.kind, code, err)
			}
		})
		t.Logf("%s: %.0f allocations per request", tc.kind, allocs)
		if info, ok := debug.ReadBuildInfo(); ok && slices.Contains(info.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
			continue // an instrumented binary's pools drop a Put in four
		}
		if allocs > tc.max {
			t.Errorf("%s: %.0f allocations per request through Serve, want <= %.0f", tc.kind, allocs, tc.max)
		}
	}
}
