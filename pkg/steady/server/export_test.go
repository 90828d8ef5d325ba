package server

import (
	"context"
	"net"
	"net/http"
	"testing"
	"time"
)

// MemoRecords reports how many /v1/solve request bodies the server
// currently remembers, for the black-box tests in package server_test.
func (s *Server) MemoRecords() int { return memoLen(s) }

// SweepRecord and CellRecord are the records /v1/sweep and
// /v1/simsweep stream.
type (
	SweepRecord = sweepRecord
	CellRecord  = cellRecord
)

// JobKeys is the sweep endpoints' cache keying of their jobs.
var JobKeys = jobKeys

// WatchResume is the watch handler's resume-token parser.
var WatchResume = watchResume

// Route adds a test-only route to the server's mux, behind the same
// middleware as the service's own routes.
func (s *Server) Route(pattern string, h http.HandlerFunc) { s.mux.HandleFunc(pattern, h) }

// Loop is a Server served through Serve on a loopback listener, the
// way cmd/steadyd serves it, for as long as a test runs.
type Loop struct {
	URL  string
	Addr string
	tb   testing.TB
	s    *Server
	done chan error
}

// ServeLoop serves s on a fresh loopback listener and shuts it down
// when the test ends.
func ServeLoop(tb testing.TB, s *Server) *Loop {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	return ServeLoopOn(tb, s, ln)
}

// ServeLoopOn is ServeLoop on a listener the test opened.
func ServeLoopOn(tb testing.TB, s *Server, ln net.Listener) *Loop {
	l := &Loop{URL: "http://" + ln.Addr().String(), Addr: ln.Addr().String(), tb: tb, s: s, done: make(chan error, 1)}
	go func() { l.done <- s.Serve(ln) }()
	tb.Cleanup(l.Close)
	return l
}

// Close shuts the loop down, waiting for the requests in flight.
func (l *Loop) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := l.s.Shutdown(ctx); err != nil {
		l.tb.Errorf("shutdown: %v", err)
	}
	if err := <-l.done; err != http.ErrServerClosed {
		l.tb.Errorf("Serve returned %v, want http.ErrServerClosed", err)
	}
	l.done <- http.ErrServerClosed // a second Close finds it again
}

// Stop closes the listener and the idle connections at once and
// waits for nothing: the process behind the URL has crashed.
func (l *Loop) Stop() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = l.s.Shutdown(ctx)
}
