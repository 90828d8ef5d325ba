package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httphead"
)

// This file is the service's HTTP/1.1 connection loop, Serve and
// Shutdown. It keeps net/http's wire behavior — a request head is read
// in place by internal/httphead when it is plain and already buffered
// whole, and by http.ReadRequest, which keeps every verdict, limit and
// error text, when not; the reply headers follow net/http's rules — and
// drops its per-request server machinery: no goroutine reads ahead of a
// handler to notice a hang-up unless the request's context is waited
// on, no read deadline is set when the headers are already buffered,
// and a reply goes out in one write.

const (
	// maxHeaderBytes is what a request may send before its headers end:
	// net/http's default 1 MiB plus the 4 KiB it allows for a read that
	// runs past them. Past it the loop answers 431.
	maxHeaderBytes = 1<<20 + 4<<10
	// headerTimeout bounds a request's header read from its first byte.
	// An idle keep-alive connection has no deadline.
	headerTimeout = 5 * time.Second
	// maxDrainBytes is the most of a request body the handler left
	// unread that the loop reads to keep the connection; with more left
	// it closes the connection instead.
	maxDrainBytes = 256 << 10
	// maxPending is how much of a reply without a Content-Length the
	// loop holds to frame it with one; a longer reply goes out chunked,
	// and chunked output is flushed at this size too.
	maxPending = 32 << 10
	// lingerDelay is how long a connection closed with request bytes
	// unread stays half-open, so the client reads the reply before the
	// kernel answers its remaining bytes with a reset.
	lingerDelay = 500 * time.Millisecond
	// watchDelay is how long a request whose context is waited on runs
	// before the loop starts its hang-up watch. Most such requests — a
	// forward, a cache miss of a small LP — are done by then, and a
	// request that finishes first never pays the watch's goroutine, its
	// read and its two deadline sets; a client that hangs up on a longer
	// one is noticed a millisecond later.
	watchDelay = time.Millisecond

	noLimit = 1<<63 - 1
)

var (
	errHeaderTooLarge = errors.New("request headers too large")
	errBadHost        = errors.New("malformed Host header")
	errMissingHost    = errors.New("missing required Host header")
	errPanic          = errors.New("internal server error")
	aLongTimeAgo      = time.Unix(1, 0)
)

// serving is the state Serve and Shutdown share.
type serving struct {
	closed    atomic.Bool
	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*conn]struct{}
	drained   chan struct{} // made by Shutdown, closed when no connection is left
}

// Serve accepts connections on l and serves each on a goroutine of its
// own with the handler Handler returns, until Shutdown. It closes l
// and always returns a non-nil error: http.ErrServerClosed after
// Shutdown, else the listener's. Serve may be called on several
// listeners at once.
//
// The loop speaks HTTP/1.1 with keep-alive (and HTTP/1.0), answers
// Expect: 100-continue on the body's first read, and recovers a
// panicking handler: a JSON 500 when nothing was written yet, the
// connection closed, steady_http_panics_total counted. A request's
// context is cancelled when its handler returns, or when the client
// hangs up while something waits on the context.
func (s *Server) Serve(l net.Listener) error {
	defer l.Close()
	sv := &s.serving
	sv.mu.Lock()
	if sv.closed.Load() {
		sv.mu.Unlock()
		return http.ErrServerClosed
	}
	if sv.listeners == nil {
		sv.listeners = map[net.Listener]struct{}{}
		sv.conns = map[*conn]struct{}{}
	}
	sv.listeners[l] = struct{}{}
	sv.mu.Unlock()
	defer func() {
		sv.mu.Lock()
		delete(sv.listeners, l)
		sv.mu.Unlock()
	}()

	h := s.Handler()
	var delay time.Duration
	for {
		rw, err := l.Accept()
		if err != nil {
			if sv.closed.Load() {
				return http.ErrServerClosed
			}
			if errors.Is(err, net.ErrClosed) {
				return err
			}
			// Out of descriptors and the like: back off as net/http does.
			delay = min(max(2*delay, 5*time.Millisecond), time.Second)
			log.Printf("server: accept: %v; retrying in %v", err, delay)
			time.Sleep(delay)
			continue
		}
		delay = 0
		c := newConn(s, h, rw)
		sv.mu.Lock()
		if sv.closed.Load() {
			sv.mu.Unlock()
			rw.Close()
			return http.ErrServerClosed
		}
		sv.conns[c] = struct{}{}
		sv.mu.Unlock()
		go c.serve()
	}
}

// Shutdown stops every Serve: it closes the listeners and the idle
// connections, then waits for the requests in flight to finish, each
// connection closing after its reply, or for ctx to end, whose error
// it then returns. New connections are refused from its start.
func (s *Server) Shutdown(ctx context.Context) error {
	sv := &s.serving
	sv.mu.Lock()
	sv.closed.Store(true)
	var err error
	for l := range sv.listeners {
		if cerr := l.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	for c := range sv.conns {
		if c.state.CompareAndSwap(stateIdle, stateClosed) {
			c.rwc.Close()
		}
	}
	if sv.drained == nil {
		sv.drained = make(chan struct{})
		if len(sv.conns) == 0 {
			close(sv.drained)
		}
	}
	drained := sv.drained
	sv.mu.Unlock()
	select {
	case <-drained:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// remove forgets c, and reports the drain to Shutdown when c was last.
func (sv *serving) remove(c *conn) {
	sv.mu.Lock()
	delete(sv.conns, c)
	if sv.drained != nil && len(sv.conns) == 0 {
		close(sv.drained)
		sv.drained = closedChan
	}
	sv.mu.Unlock()
}

// Connection states; Shutdown closes a connection only while idle.
const (
	stateActive int32 = iota
	stateIdle
	stateClosed
)

// conn is one client connection and the buffers its requests reuse.
type conn struct {
	s      *Server
	h      http.Handler
	rwc    net.Conn
	remote string
	state  atomic.Int32
	in     limitedConn
	br     *bufio.Reader
	// out stages reply bytes — headers, chunk framing, small chunks —
	// for the next write; pending holds the start of a reply whose
	// length is not known yet.
	out     []byte
	pending []byte
	iov     [3][]byte
	bufs    net.Buffers
	keys    []string
	dateSec int64
	date    []byte
	werr    error
	fixed   httphead.Body // a scanned request's body
	body    reqBody
	resp    response
	// watchDone is closed when the request's hang-up watch has stopped.
	watchDone chan struct{}
}

func newConn(s *Server, h http.Handler, rwc net.Conn) *conn {
	c := &conn{s: s, h: h, rwc: rwc, remote: rwc.RemoteAddr().String()}
	c.in = limitedConn{c: rwc, remain: noLimit}
	c.br = bufio.NewReader(&c.in)
	c.state.Store(stateActive)
	return c
}

// limitedConn caps what the header read may take from the connection;
// noLimit is its setting the rest of the time.
type limitedConn struct {
	c      net.Conn
	remain int64
}

func (l *limitedConn) Read(p []byte) (int, error) {
	if l.remain <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > l.remain {
		p = p[:l.remain]
	}
	n, err := l.c.Read(p)
	l.remain -= int64(n)
	return n, err
}

func (c *conn) serve() {
	lingering := false
	defer func() {
		if lingering {
			if tc, ok := c.rwc.(interface{ CloseWrite() error }); ok {
				_ = tc.CloseWrite()
				time.Sleep(lingerDelay)
			}
		}
		c.rwc.Close()
		c.s.serving.remove(c)
	}()
	for c.next() {
		req, err := c.readRequest()
		if err != nil {
			lingering = c.reject(err)
			return
		}
		keep, unread := c.serveRequest(req)
		if !keep {
			lingering = unread
			return
		}
	}
}

// next waits, idle, for the first byte of the next request.
func (c *conn) next() bool {
	sv := &c.s.serving
	c.state.Store(stateIdle)
	if sv.closed.Load() {
		return false
	}
	_, err := c.br.Peek(1)
	return c.state.CompareAndSwap(stateIdle, stateActive) && err == nil && !sv.closed.Load()
}

// readRequest reads one request's head, and returns the request with
// its context. A plain head already buffered whole is read in place;
// any other goes to http.ReadRequest, under the header deadline when
// its end is not buffered yet.
func (c *conn) readRequest() (*http.Request, error) {
	buffered, _ := c.br.Peek(c.br.Buffered())
	var h httphead.Head
	if httphead.Request(buffered, &h) {
		c.s.heads.scan.Inc()
		_, _ = c.br.Discard(h.N)
		return c.scanned(&h), nil
	}
	c.s.heads.strict.Inc()
	c.in.remain = maxHeaderBytes - int64(len(buffered)) // counted from the request's first byte
	timed := !bytes.Contains(buffered, []byte("\r\n\r\n"))
	if timed {
		c.rwc.SetReadDeadline(time.Now().Add(headerTimeout))
	}
	req, err := http.ReadRequest(c.br)
	if timed && err == nil {
		c.rwc.SetReadDeadline(time.Time{})
	}
	hitLimit := c.in.remain <= 0
	c.in.remain = noLimit
	switch {
	case err != nil && hitLimit:
		return nil, errHeaderTooLarge
	case err != nil:
		return nil, err
	case req.ProtoMajor != 1:
		return nil, errUnsupportedVersion
	}
	// ReadRequest moves the Host header to req.Host.
	if req.ProtoAtLeast(1, 1) && req.Host == "" {
		return nil, errMissingHost
	}
	if !httphead.ValidHost(req.Host) {
		return nil, errBadHost
	}
	return req.WithContext(&reqCtx{c: c}), nil
}

// scannedRequest is a request read in place: the request, its URL and
// its context in one allocation.
type scannedRequest struct {
	req http.Request
	url url.URL
	ctx reqCtx
}

// scanned builds the request http.ReadRequest would have built from the
// plain head h, with its context. Its body, if it has one, is the
// connection's fixed-length reader over the head's bytes.
func (c *conn) scanned(h *httphead.Head) *http.Request {
	r := &scannedRequest{url: url.URL{Path: h.Path, RawQuery: h.Query}}
	r.ctx.c = c
	req := http.Request{
		Method:        h.Method,
		URL:           &r.url,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        h.Header,
		Body:          http.NoBody,
		ContentLength: h.ContentLength,
		Close:         h.Close,
		Host:          h.Host,
		RequestURI:    h.Target,
	}
	if h.ContentLength > 0 {
		c.fixed.Reset(c.br, h.ContentLength)
		req.Body = &c.fixed
	}
	r.req = *req.WithContext(&r.ctx)
	return &r.req
}

var errUnsupportedVersion = errors.New("unsupported protocol version")

// reject answers a request the loop could not read, as net/http does,
// and reports whether request bytes may remain unread.
func (c *conn) reject(err error) (unread bool) {
	const tail = "\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n"
	var msg string
	switch {
	case errors.Is(err, errHeaderTooLarge):
		msg = "431 Request Header Fields Too Large"
		unread = true
	case strings.HasPrefix(err.Error(), "unsupported transfer encoding"):
		_, _ = io.WriteString(c.rwc, "HTTP/1.1 501 Not Implemented"+tail+"Unsupported transfer encoding")
		return false
	case isNetReadError(err):
		return false
	case errors.Is(err, errUnsupportedVersion):
		msg = "505 HTTP Version Not Supported: " + err.Error()
	case errors.Is(err, errMissingHost), errors.Is(err, errBadHost):
		msg = "400 Bad Request: " + err.Error()
	default:
		msg = "400 Bad Request"
	}
	_, _ = io.WriteString(c.rwc, "HTTP/1.1 "+msg+tail+msg)
	return unread
}

func isNetReadError(err error) bool {
	if err == io.EOF {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	var oe *net.OpError
	return errors.As(err, &oe) && oe.Op == "read"
}

// serveRequest runs the handler on req and finishes its reply. It
// reports whether the connection can carry another request and, when
// not, whether request bytes may remain unread.
func (c *conn) serveRequest(req *http.Request) (keep, unread bool) {
	x := req.Context().(*reqCtx)
	c.body = reqBody{x: x, rc: req.Body, length: req.ContentLength}
	if req.Body == http.NoBody {
		c.body.sawEOF, x.eof = true, true
	} else {
		req.Body = &c.body
	}
	req.RemoteAddr = c.remote

	w := &c.resp
	*w = response{
		c:      c,
		req:    req,
		header: w.header,
		isHEAD: req.Method == http.MethodHead,
		// ReadRequest sets Close for Connection: close, and for HTTP/1.0
		// without Connection: keep-alive.
		closeAfter:       req.Close,
		wants10KeepAlive: !req.ProtoAtLeast(1, 1) && hasToken(req.Header.Get("Connection"), "keep-alive"),
	}
	if w.header == nil {
		w.header = make(http.Header)
	}
	clear(w.header)

	if expect := req.Header.Get("Expect"); expect != "" {
		if !hasToken(expect, "100-continue") {
			w.header.Set("Connection", "close")
			w.WriteHeader(http.StatusExpectationFailed)
			w.finish()
			x.cancel(context.Canceled)
			return false, c.body.unread()
		}
		if req.ProtoAtLeast(1, 1) && req.ContentLength != 0 {
			c.body.expect, c.body.continued = true, true
		}
	}

	c.runHandler(w, req)
	x.cancel(context.Canceled)
	c.stopWatch(x)
	w.finish()
	if cap(c.pending) > 2*maxPending {
		c.pending = nil
	}
	if cap(c.out) > 2*maxPending {
		c.out = nil
	}
	return !w.closeAfter && c.werr == nil, c.body.unread()
}

// runHandler serves one request, recovering a panic: a JSON 500 when
// nothing has been written, and the connection closed either way.
// http.ErrAbortHandler is the handler's own way to drop a reply: it is
// neither logged nor counted.
func (c *conn) runHandler(w *response, req *http.Request) {
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		w.closeAfter = true
		if v == http.ErrAbortHandler {
			w.aborted = true
			return
		}
		c.s.panics.Inc()
		log.Printf("server: panic serving %s %s %s: %v\n%s", c.remote, req.Method, req.URL.Path, v, debug.Stack())
		if w.committed {
			w.aborted = true
			return
		}
		clear(w.header)
		w.status = 0
		c.pending = c.pending[:0]
		writeErr(w, http.StatusInternalServerError, errPanic)
	}()
	c.h.ServeHTTP(w, req)
}

// stopWatch ends x's hang-up watch, or stops its timer before it
// starts, leaving whatever the watch read buffered for the next
// request. x is cancelled by then, so a timer that fires late starts
// nothing.
func (c *conn) stopWatch(x *reqCtx) {
	x.mu.Lock()
	if x.timer != nil {
		x.timer.Stop()
	}
	watching := x.watching
	x.mu.Unlock()
	if !watching {
		return
	}
	select {
	case <-c.watchDone:
		return
	default:
	}
	c.rwc.SetReadDeadline(aLongTimeAgo)
	<-c.watchDone
	c.rwc.SetReadDeadline(time.Time{})
}

// emit writes out, then p, then tail, in one write, and empties out.
func (c *conn) emit(p, tail []byte) error {
	if c.werr != nil {
		return c.werr
	}
	switch {
	case len(p) == 0 && len(tail) == 0:
		if len(c.out) > 0 {
			_, c.werr = c.rwc.Write(c.out)
		}
	default:
		c.iov = [3][]byte{c.out, p, tail}
		c.bufs = c.iov[:]
		_, c.werr = c.bufs.WriteTo(c.rwc)
		c.iov = [3][]byte{}
	}
	c.out = c.out[:0]
	return c.werr
}

// reqBody is a request body as the handler reads it: it owes the
// client a 100 Continue until its first read, and reports its end to
// the request's context, which may then watch the connection.
type reqBody struct {
	x         *reqCtx
	rc        io.ReadCloser
	length    int64 // declared; -1 when chunked
	read      int64
	sawEOF    bool
	err       error // the read error short of the end, if one came
	closed    bool
	expect    bool // a 100 Continue is owed
	continued bool // the request asked for 100-continue
}

func (b *reqBody) Read(p []byte) (int, error) {
	if b.closed {
		return 0, http.ErrBodyReadAfterClose
	}
	return b.readBody(p)
}

func (b *reqBody) readBody(p []byte) (int, error) {
	if b.sawEOF {
		return 0, io.EOF
	}
	if b.expect {
		b.expect = false
		c := b.x.c
		if !c.resp.committed && c.werr == nil {
			_, c.werr = io.WriteString(c.rwc, "HTTP/1.1 100 Continue\r\n\r\n")
		}
	}
	n, err := b.rc.Read(p)
	b.read += int64(n)
	switch {
	case err == io.EOF:
		b.sawEOF = true
		b.x.bodyDone()
	case err != nil:
		b.err = err
	}
	return n, err
}

// unread reports whether the client may still be sending this body.
func (b *reqBody) unread() bool { return !b.sawEOF && b.err == nil }

// Close stops the handler's reads; what is left is the loop's to
// drain or to close the connection on.
func (b *reqBody) Close() error {
	b.closed = true
	return nil
}

// drain reads what the handler left of the body, up to maxDrainBytes,
// and reports whether the connection can carry another request.
func (b *reqBody) drain() bool {
	if b.sawEOF {
		return true
	}
	if b.continued || b.err != nil {
		// The client may never send what it offered; or what is left
		// on the wire is no request.
		return false
	}
	if b.length > 0 && b.length-b.read >= maxDrainBytes {
		return false
	}
	n, err := io.CopyN(io.Discard, readerFunc(b.readBody), maxDrainBytes+1)
	return err == io.EOF && n <= maxDrainBytes
}

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

// reqCtx is a request's context. It is cancelled when the handler
// returns, and when the client hangs up — which only a read of the
// connection notices, so one is started watchDelay after the context is
// first waited on (Done, or a derived context) once the body has been
// read to its end, if the request still runs then. The watch reads
// through the connection's own reader: a pipelined next request is
// buffered, not lost.
type reqCtx struct {
	c        *conn
	mu       sync.Mutex
	done     chan struct{}
	err      error
	eof      bool        // the request body has been read to its end
	wanted   bool        // the context is waited on
	timer    *time.Timer // starts the watch; nil until the request wants one
	watching bool
	afters   []*afterFunc
}

type afterFunc struct{ f func() }

var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

func (x *reqCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (x *reqCtx) Value(any) any               { return nil }

func (x *reqCtx) Err() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.err
}

func (x *reqCtx) Done() <-chan struct{} {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.waitLocked()
	return x.done
}

func (x *reqCtx) waitLocked() {
	if x.done != nil {
		return
	}
	if x.err != nil {
		x.done = closedChan
		return
	}
	x.done = make(chan struct{})
	x.wanted = true
	if x.eof {
		x.watchLocked()
	}
}

// AfterFunc lets a derived context (context.WithTimeout and friends)
// hang its cancellation on x without a goroutine of its own waiting.
func (x *reqCtx) AfterFunc(f func()) (stop func() bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.waitLocked()
	if x.err != nil {
		go f()
		return func() bool { return false }
	}
	a := &afterFunc{f: f}
	x.afters = append(x.afters, a)
	return func() bool {
		x.mu.Lock()
		defer x.mu.Unlock()
		if i := slices.Index(x.afters, a); i >= 0 {
			x.afters = slices.Delete(x.afters, i, i+1)
			return true
		}
		return false
	}
}

func (x *reqCtx) bodyDone() {
	x.mu.Lock()
	x.eof = true
	if x.wanted && x.err == nil {
		x.watchLocked()
	}
	x.mu.Unlock()
}

// watchLocked arms the timer that starts the hang-up watch.
func (x *reqCtx) watchLocked() {
	if x.timer == nil {
		x.timer = time.AfterFunc(watchDelay, x.watch)
	}
}

// watch starts the hang-up watch of a request still running: a read
// that ends with the client's hang-up, with the next request's first
// bytes, or when stopWatch sets a deadline in the past.
func (x *reqCtx) watch() {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.err != nil || x.watching {
		return
	}
	x.watching = true
	c := x.c
	c.watchDone = make(chan struct{})
	go func() {
		defer close(c.watchDone)
		if _, err := c.br.Peek(1); err != nil {
			x.cancel(context.Canceled)
		}
	}()
}

func (x *reqCtx) cancel(err error) {
	x.mu.Lock()
	if x.err != nil {
		x.mu.Unlock()
		return
	}
	x.err = err
	if x.done != nil {
		close(x.done)
	}
	afters := x.afters
	x.afters = nil
	x.mu.Unlock()
	for _, a := range afters {
		go a.f()
	}
}

// Framing of a committed reply.
const (
	frameNone    = iota // HEAD, or a status without a body
	frameLength         // Content-Length
	frameChunked        // Transfer-Encoding: chunked
	frameClose          // the body ends with the connection
)

// response is the loop's http.ResponseWriter. A reply whose length the
// handler declared goes out with the write that completes it, or with
// the first write; one whose length is not known is held until the
// handler returns (and then framed with a Content-Length), until it
// flushes or until it outgrows maxPending (and then it is chunked).
type response struct {
	c      *conn
	req    *http.Request
	header http.Header
	status int

	committed bool
	aborted   bool
	frame     int
	length    int64 // declared or computed; -1 when unknown
	written   int64

	isHEAD           bool
	wants10KeepAlive bool
	closeAfter       bool
}

func (w *response) Header() http.Header { return w.header }

func (w *response) WriteHeader(code int) {
	if w.committed || w.status != 0 {
		return
	}
	if code < 100 || code > 999 {
		panic("invalid WriteHeader code " + strconv.Itoa(code))
	}
	w.status = code
}

func (w *response) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	c := w.c
	if !w.committed {
		if !bodyAllowed(w.status) {
			return 0, http.ErrBodyNotAllowed
		}
		if cl, ok := declaredLength(w.header); ok {
			if int64(len(p)) > cl {
				return 0, http.ErrContentLength
			}
			w.commit(p, false)
			return w.send(p)
		}
		if len(c.pending)+len(p) <= maxPending {
			c.pending = append(c.pending, p...)
			return len(p), nil
		}
		w.commit(c.pending, false)
		if _, err := w.send(c.pending); err != nil {
			return 0, err
		}
		c.pending = c.pending[:0]
	}
	return w.send(p)
}

// send writes body bytes p of a committed reply under its framing,
// together with whatever out has staged.
func (w *response) send(p []byte) (int, error) {
	c := w.c
	switch w.frame {
	case frameNone:
		if w.isHEAD {
			return len(p), c.emit(nil, nil)
		}
		return 0, http.ErrBodyNotAllowed
	case frameLength:
		if w.written+int64(len(p)) > w.length {
			return 0, http.ErrContentLength
		}
		w.written += int64(len(p))
		return len(p), c.emit(p, nil)
	case frameChunked:
		if len(p) == 0 {
			return 0, nil
		}
		c.out = strconv.AppendInt(c.out, int64(len(p)), 16)
		c.out = append(c.out, "\r\n"...)
		if len(c.out)+len(p) < maxPending {
			c.out = append(append(c.out, p...), "\r\n"...)
			return len(p), c.werr
		}
		return len(p), c.emit(p, crlf)
	default: // frameClose
		if len(c.out)+len(p) < maxPending {
			c.out = append(c.out, p...)
			return len(p), c.werr
		}
		return len(p), c.emit(p, nil)
	}
}

var crlf = []byte("\r\n")

// Flush sends the reply so far, committing it to chunked framing when
// its length is not known.
func (w *response) Flush() {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	c := w.c
	if !w.committed {
		w.commit(c.pending, false)
		if len(c.pending) > 0 {
			_, _ = w.send(c.pending)
			c.pending = c.pending[:0]
		}
	}
	_ = c.emit(nil, nil)
}

// finish completes the reply after the handler returned.
func (w *response) finish() {
	if w.aborted {
		return
	}
	if w.status == 0 {
		w.status = http.StatusOK
	}
	c := w.c
	if !w.committed {
		w.commit(c.pending, true)
		_, _ = w.send(c.pending)
		c.pending = c.pending[:0]
	}
	switch w.frame {
	case frameChunked:
		c.out = append(c.out, "0\r\n\r\n"...)
	case frameLength:
		if !w.isHEAD && w.written != w.length {
			w.closeAfter = true // the client still waits for the rest
		}
	}
	_ = c.emit(nil, nil)
}

// declaredLength reads a valid Content-Length the handler set.
func declaredLength(h http.Header) (int64, bool) {
	v, ok := h["Content-Length"]
	if !ok || len(v) == 0 {
		return 0, false
	}
	n, err := strconv.ParseInt(v[0], 10, 64)
	return n, err == nil && n >= 0
}

func bodyAllowed(status int) bool {
	return (status < 100 || status > 199) && status != http.StatusNoContent && status != http.StatusNotModified
}

// commit stages the status line and headers in out, deciding the
// reply's framing and whether the connection closes after it by
// net/http's rules. p is the start of the body, sniffed for a
// Content-Type when none is set; final means it is all of it.
func (w *response) commit(p []byte, final bool) {
	c, h, code := w.c, w.header, w.status
	w.committed = true
	delete(h, "Transfer-Encoding") // the loop frames every reply itself
	w.length = -1
	if n, ok := declaredLength(h); ok && bodyAllowed(code) {
		w.length = n
	} else {
		delete(h, "Content-Length")
	}
	autoLength := final && bodyAllowed(code) && w.length < 0 && (!w.isHEAD || len(p) > 0)
	if autoLength {
		w.length = int64(len(p))
	}
	contentType := ""
	if _, set := h["Content-Type"]; !set && bodyAllowed(code) && len(p) > 0 {
		contentType = http.DetectContentType(p)
	} else if code == http.StatusNotModified {
		delete(h, "Content-Type")
	}

	transferEncoding := ""
	switch {
	case w.isHEAD || !bodyAllowed(code):
		w.frame = frameNone
	case w.length >= 0:
		w.frame = frameLength
	case w.req.ProtoAtLeast(1, 1):
		w.frame = frameChunked
		transferEncoding = "chunked"
	default:
		w.frame = frameClose
		w.closeAfter = true
	}

	connection := ""
	if _, set := h["Connection"]; !set && w.wants10KeepAlive && w.frame != frameClose {
		connection = "keep-alive"
	}
	closing := c.s.serving.closed.Load()
	if h.Get("Connection") == "close" || closing || (!w.closeAfter && !c.body.drain()) {
		w.closeAfter = true
	}
	if w.closeAfter && (closing || !hasToken(h.Get("Connection"), "close")) {
		delete(h, "Connection")
		connection = ""
		if w.req.ProtoAtLeast(1, 1) {
			connection = "close"
		}
	}

	b := c.out[:0]
	if w.req.ProtoAtLeast(1, 1) {
		b = append(b, "HTTP/1.1 "...)
	} else {
		b = append(b, "HTTP/1.0 "...)
	}
	b = strconv.AppendInt(b, int64(code), 10)
	if text := http.StatusText(code); text != "" {
		b = append(append(b, ' '), text...)
	} else {
		b = append(b, " status code "...)
		b = strconv.AppendInt(b, int64(code), 10)
	}
	b = append(b, "\r\n"...)
	keys := c.keys[:0]
	for k := range h {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		for _, v := range h[k] {
			b = append(append(append(b, k...), ": "...), headerValue(v)...)
			b = append(b, "\r\n"...)
		}
	}
	clear(keys)
	c.keys = keys[:0]
	if _, ok := h["Date"]; !ok {
		b = append(append(b, "Date: "...), c.httpDate()...)
		b = append(b, "\r\n"...)
	}
	if autoLength {
		b = append(b, "Content-Length: "...)
		b = strconv.AppendInt(b, w.length, 10)
		b = append(b, "\r\n"...)
	}
	for _, kv := range [...][2]string{{"Content-Type", contentType}, {"Connection", connection}, {"Transfer-Encoding", transferEncoding}} {
		if kv[1] != "" {
			b = append(append(append(b, kv[0]...), ": "...), kv[1]...)
			b = append(b, "\r\n"...)
		}
	}
	c.out = append(b, "\r\n"...)
}

// httpDate is the Date header's value, formatted once a second.
func (c *conn) httpDate() []byte {
	now := time.Now()
	if sec := now.Unix(); sec != c.dateSec || c.date == nil {
		c.dateSec = sec
		c.date = now.UTC().AppendFormat(c.date[:0], http.TimeFormat)
	}
	return c.date
}

// hasToken reports whether the comma-separated header value v holds
// token, case-insensitively.
func hasToken(v, token string) bool {
	for v != "" {
		var t string
		t, v, _ = strings.Cut(v, ",")
		if strings.EqualFold(strings.TrimSpace(t), token) {
			return true
		}
	}
	return false
}

// headerValue is v as net/http sends it: line breaks become spaces and
// surrounding blanks go.
func headerValue(v string) string {
	if strings.ContainsAny(v, "\r\n") {
		v = strings.NewReplacer("\r\n", " ", "\r", " ", "\n", " ").Replace(v)
	}
	return strings.Trim(v, " \t")
}
