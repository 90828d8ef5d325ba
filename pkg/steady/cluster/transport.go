package cluster

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httphead"
	"repro/pkg/steady/obs"
)

const (
	// maxPeerConns bounds the connections to one peer, busy or idle.
	maxPeerConns = 128
	// peerIdleTimeout closes a pooled connection left idle this long.
	peerIdleTimeout = 90 * time.Second
	// dialTimeout bounds one TCP dial to a peer.
	dialTimeout = 2 * time.Second
)

// errInformational refuses a 1xx reply: no peer call asks for one.
var errInformational = errors.New("cluster: peer sent an informational (1xx) reply")

// aLongTimeAgo is the deadline that makes a connection's blocked read
// or write return at once.
var aLongTimeAgo = time.Unix(1, 0)

// peer is one remote member of the cluster: its parsed base URL and
// the keep-alive connections to it. A peer call runs entirely on the
// calling goroutine — it takes a connection, appends the request head
// (the bytes (*http.Request).Write would send) and the body into the
// connection's writer, and reads the reply on the same connection: its
// head in place with internal/httphead when it is plain and arrived
// whole, with http.ReadResponse otherwise — so there is no reader or
// writer goroutine per connection and no hand-off between goroutines.
type peer struct {
	host   string // the base URL's host[:port]
	addr   string // host:port, the dial address; port 80 when the URL names none
	target string // the base URL's path as a request target, prefixed to every request path
	// hostHeader is the Host value (*http.Request).Write sends for host.
	hostHeader string
	// heads counts the readers of the peer's reply heads: the cluster's
	// own once SetObs has run.
	heads *atomic.Pointer[headPaths]

	// slots holds one token per open connection, busy or idle: a call
	// that cannot send one waits, and never dials past maxPeerConns.
	slots chan struct{}
	// avail wakes one waiting call after a connection went idle; a
	// waiter that takes one and leaves more behind passes it on.
	avail chan struct{}

	mu     sync.Mutex
	idle   []*peerConn // most recently used last
	closed bool
}

// headPaths counts which reader took a peer's reply head: the scanner
// of the plain spelling or http.ReadResponse. Nil-safe.
type headPaths struct{ scan, strict *obs.Counter }

func newPeer(u *url.URL) *peer {
	host := strings.TrimSuffix(u.Host, ":") // "b:" is "b", as http.NewRequest has it
	addr := host
	if u.Port() == "" {
		addr = net.JoinHostPort(u.Hostname(), "80")
	}
	hostHeader, _ := writtenHost(host) // parsePeerURL refused a host it refuses
	return &peer{
		host:       host,
		addr:       addr,
		target:     (&url.URL{Path: u.Path}).EscapedPath(),
		hostHeader: hostHeader,
		heads:      new(atomic.Pointer[headPaths]),
		slots:      make(chan struct{}, maxPeerConns),
		avail:      make(chan struct{}, 1),
	}
}

// writtenHost is the Host header value (*http.Request).Write sends for
// host — punycoded, without an IPv6 zone, empty when it is no valid
// header value — taken from a request it writes once.
func writtenHost(host string) (string, error) {
	var b bytes.Buffer
	req := &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/"}, Host: host, Header: http.Header{}}
	if err := req.Write(&b); err != nil {
		return "", err
	}
	_, line, _ := strings.Cut(b.String(), "\r\nHost: ")
	v, _, _ := strings.Cut(line, "\r\n")
	return v, nil
}

// call is one peer request: its method, its path under the peer's base
// URL, and the two headers a forward carries ("" when not sent).
type call struct {
	method, path           string
	contentType, forwarded string
}

// appendHead appends the head of cl with a body of n bytes to b: the
// bytes (*http.Request).Write writes for the request, Go's default
// User-Agent and a Content-Length included.
func (p *peer) appendHead(b []byte, cl *call, n int) []byte {
	b = append(append(append(b, cl.method...), ' '), p.target...)
	b = append(b, cl.path...)
	b = append(append(b, " HTTP/1.1\r\nHost: "...), p.hostHeader...)
	b = append(b, "\r\nUser-Agent: Go-http-client/1.1\r\n"...)
	if n > 0 || cl.method == http.MethodPost {
		b = strconv.AppendInt(append(b, "Content-Length: "...), int64(n), 10)
		b = append(b, "\r\n"...)
	}
	if cl.contentType != "" {
		b = append(append(append(b, "Content-Type: "...), cl.contentType...), "\r\n"...)
	}
	if cl.forwarded != "" {
		b = append(append(append(append(b, ForwardedHeader...), ": "...), cl.forwarded...), "\r\n"...)
	}
	return append(b, "\r\n"...)
}

// peerConn is one keep-alive connection to a peer. Only the call that
// holds it reads, writes or counts; a cancelled call's context only
// moves its deadline.
type peerConn struct {
	p      *peer
	conn   net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	read   int64         // bytes read from conn by the current call
	idleAt time.Time     // when it was last put back
	fixed  httphead.Body // a scanned reply's body
}

func (pc *peerConn) Read(b []byte) (int, error) {
	n, err := pc.conn.Read(b)
	pc.read += int64(n)
	return n, err
}

// close shuts the connection and frees its slot.
func (pc *peerConn) close() {
	pc.conn.Close()
	<-pc.p.slots
}

// do sends cl with body to p and reads the reply's header; the caller
// reads the body and must close it. The connection's deadline bounds
// the whole exchange, the body included; cancelling ctx moves it into
// the past. A call on a reused connection that fails before the first
// reply byte — the peer closed it while it sat idle, or restarted — is
// sent once more on a freshly dialed one: the body is a byte slice and
// every peer route is a pure function of it. Only a failure on a fresh
// connection, or after the reply began, is returned.
func (p *peer) do(ctx context.Context, cl *call, body []byte, deadline time.Time) (*http.Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	fresh := false
	for {
		pc, reused, err := p.get(ctx, deadline, fresh)
		if err != nil {
			return nil, err
		}
		resp, err := pc.roundTrip(ctx, cl, body, deadline)
		if err == nil || !reused || !pc.retryable(ctx, err) {
			return resp, err
		}
		fresh = true
	}
}

// retryable reports whether a failed exchange on a reused connection
// may go again: nothing of a reply arrived, and neither the caller nor
// the deadline ended it.
func (pc *peerConn) retryable(ctx context.Context, err error) bool {
	return pc.read == 0 && ctx.Err() == nil && !errors.Is(err, os.ErrDeadlineExceeded)
}

// reply is a scanned reply and its body, in one allocation.
type reply struct {
	resp http.Response
	body peerBody
}

func (pc *peerConn) roundTrip(ctx context.Context, cl *call, body []byte, deadline time.Time) (*http.Response, error) {
	pc.read = 0
	// The deadline first: cancelling moves it, and must not be undone.
	if err := pc.conn.SetDeadline(deadline); err != nil {
		pc.close()
		return nil, err
	}
	stop := func() bool { return true }
	if ctx.Done() != nil {
		conn := pc.conn
		stop = context.AfterFunc(ctx, func() { _ = conn.SetDeadline(aLongTimeAgo) })
	}
	_, _ = pc.bw.Write(pc.p.appendHead(pc.bw.AvailableBuffer(), cl, len(body)))
	_, _ = pc.bw.Write(body)
	err := pc.bw.Flush() // a bufio.Writer keeps its first error
	var buf []byte
	if err == nil {
		buf, err = pc.br.Peek(1)
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // as http.ReadResponse has it
		}
	}
	var h httphead.Head
	if err == nil {
		buf, _ = pc.br.Peek(pc.br.Buffered())
		if httphead.Response(buf, &h) {
			pc.p.countHead(true)
			_, _ = pc.br.Discard(h.N)
			r := &reply{resp: http.Response{
				Status:        h.Status,
				StatusCode:    h.StatusCode,
				Proto:         "HTTP/1.1",
				ProtoMajor:    1,
				ProtoMinor:    1,
				Header:        h.Header,
				ContentLength: h.ContentLength,
				Close:         h.Close,
			}}
			r.body = peerBody{rc: http.NoBody, pc: pc, stop: stop, keep: !h.Close, eof: h.ContentLength == 0}
			if h.ContentLength > 0 {
				pc.fixed.Reset(pc.br, h.ContentLength)
				r.body.rc = &pc.fixed
			}
			r.resp.Body = &r.body
			return &r.resp, nil
		}
		pc.p.countHead(false)
	}
	var resp *http.Response
	if err == nil {
		resp, err = http.ReadResponse(pc.br, &http.Request{Method: cl.method})
	}
	if err == nil && resp.StatusCode < 200 {
		err = errInformational
	}
	if err != nil {
		stop()
		pc.close()
		return nil, err
	}
	resp.Body = &peerBody{rc: resp.Body, pc: pc, stop: stop, keep: !resp.Close, eof: resp.Body == http.NoBody}
	return resp, nil
}

// countHead counts a reply head under the reader that took it.
func (p *peer) countHead(scanned bool) {
	hp := p.heads.Load()
	switch {
	case hp == nil:
	case scanned:
		hp.scan.Inc()
	default:
		hp.strict.Inc()
	}
}

// peerBody is a reply body on a peer connection. Closing it gives the
// connection back to the pool only when the body was read to EOF, the
// peer did not ask to close, no byte beyond the reply is buffered and
// the call was not cancelled; anything else closes the connection.
type peerBody struct {
	rc   io.ReadCloser
	pc   *peerConn
	stop func() bool
	keep bool
	eof  bool
	done bool
}

func (b *peerBody) Read(p []byte) (int, error) {
	if b.done {
		return 0, http.ErrBodyReadAfterClose
	}
	n, err := b.rc.Read(p)
	if err == io.EOF {
		b.eof = true
	}
	return n, err
}

// Close never closes the reply's own reader: that would read on to the
// end of an unfinished body, while closing the connection ends it.
func (b *peerBody) Close() error {
	if b.done {
		return nil
	}
	b.done = true
	if b.stop() && b.eof && b.keep && b.pc.br.Buffered() == 0 {
		b.pc.p.put(b.pc)
	} else {
		b.pc.close()
	}
	return nil
}

// get returns a connection to p: the most recently used idle one, or
// a new one while fewer than maxPeerConns are open, or — waiting until
// ctx or the deadline ends the call — the first of either to come
// free. fresh skips the idle ones. reused reports an idle one.
func (p *peer) get(ctx context.Context, deadline time.Time, fresh bool) (pc *peerConn, reused bool, err error) {
	if !fresh {
		if pc := p.takeIdle(); pc != nil {
			return pc, true, nil
		}
	}
	select {
	case p.slots <- struct{}{}:
		pc, err := p.dial(ctx, deadline)
		return pc, false, err
	default:
	}
	avail := p.avail
	if fresh {
		avail = nil
	}
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for {
		select {
		case p.slots <- struct{}{}:
			pc, err := p.dial(ctx, deadline)
			return pc, false, err
		case <-avail:
			if pc := p.takeIdle(); pc != nil {
				return pc, true, nil
			}
		case <-ctx.Done():
			return nil, false, ctx.Err()
		case <-timer.C:
			return nil, false, fmt.Errorf("cluster: no connection to %s within the deadline: %w", p.addr, os.ErrDeadlineExceeded)
		}
	}
}

// dial opens a connection on a slot the caller holds, freeing the slot
// if the dial fails.
func (p *peer) dial(ctx context.Context, deadline time.Time) (*peerConn, error) {
	d := net.Dialer{Timeout: dialTimeout, Deadline: deadline, KeepAlive: 30 * time.Second}
	conn, err := d.DialContext(ctx, "tcp", p.addr)
	if err != nil {
		<-p.slots
		return nil, err
	}
	pc := &peerConn{p: p, conn: conn, bw: bufio.NewWriter(conn)}
	pc.br = bufio.NewReader(pc)
	return pc, nil
}

// takeIdle pops the most recently used idle connection, closing any
// that outlived the idle timeout on the way.
func (p *peer) takeIdle() *peerConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	for n := len(p.idle); n > 0; n = len(p.idle) {
		pc := p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		if time.Since(pc.idleAt) < peerIdleTimeout {
			if len(p.idle) > 0 {
				p.signal() // a waiter may be owed the rest
			}
			return pc
		}
		pc.close()
	}
	return nil
}

// put makes pc idle and wakes a waiting call, or closes pc once the
// peer is closed.
func (p *peer) put(pc *peerConn) {
	pc.idleAt = time.Now()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		pc.close()
		return
	}
	p.idle = append(p.idle, pc)
	p.mu.Unlock()
	p.signal()
}

func (p *peer) signal() {
	select {
	case p.avail <- struct{}{}:
	default:
	}
}

// closeExpired closes the idle connections older than the idle
// timeout. The oldest sit first.
func (p *peer) closeExpired() {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for n < len(p.idle) && time.Since(p.idle[n].idleAt) >= peerIdleTimeout {
		p.idle[n].close()
		n++
	}
	p.idle = append(p.idle[:0], p.idle[n:]...)
	clear(p.idle[len(p.idle):cap(p.idle)])
}

// close closes every idle connection; a busy one is closed when its
// call gives it back.
func (p *peer) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for i, pc := range p.idle {
		pc.close()
		p.idle[i] = nil
	}
	p.idle = p.idle[:0]
}
