package httphead

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"testing"
)

// Plain heads, as their senders spell them.
const (
	// goClientHead is what Go's http.Client sends for a JSON POST.
	goClientHead = "POST /v1/solve HTTP/1.1\r\nHost: 127.0.0.1:8080\r\nUser-Agent: Go-http-client/1.1\r\nContent-Length: 7\r\nContent-Type: application/json\r\nAccept-Encoding: gzip\r\n\r\n"
	// peerHead is a forward as the cluster's peer transport writes it.
	peerHead = "POST /v1/solve HTTP/1.1\r\nHost: 127.0.0.1:8081\r\nUser-Agent: Go-http-client/1.1\r\nContent-Length: 7\r\nContent-Type: application/json\r\nX-Steady-Forwarded: http://127.0.0.1:8080\r\n\r\n"
	// queryHead is a GET whose query carries an escaped name.
	queryHead = "GET /v1/stats?solver=masterslave%2Fv1 HTTP/1.1\r\nHost: b:8081\r\nUser-Agent: Go-http-client/1.1\r\n\r\n"
	// curlHead is what curl sends for `curl -d @body.json -H 'Content-Type: application/json'`.
	curlHead = "POST /v1/solve HTTP/1.1\r\nHost: localhost:8080\r\nUser-Agent: curl/8.5.0\r\nAccept: */*\r\nContent-Type: application/json\r\nContent-Length: 7\r\n\r\n"
	// ownerReply is an owner's answer to a forward, as the connection
	// loop writes it.
	ownerReply = "HTTP/1.1 200 OK\r\nContent-Length: 7\r\nContent-Type: application/json\r\nDate: Sun, 18 Oct 2026 01:52:28 GMT\r\nX-Steady-Served-By: http://127.0.0.1:8081\r\n\r\n"
)

// Plain heads and hostile ones, the fuzz targets' seeds: every hostile
// head is one the scanner must leave to net/http.
var (
	requestSeeds  = append(plainRequests, hostileRequests...)
	responseSeeds = append(plainResponses, hostileResponses...)
)

var plainRequests = []string{
	goClientHead + "payload",
	peerHead + "payload",
	queryHead,
	curlHead + "payload",
	"GET /v1/healthz HTTP/1.1\r\nHost: steadyd\r\nConnection: close\r\n\r\n",
	"GET /metrics HTTP/1.1\r\nHost: steadyd\r\nConnection: keep-alive\r\nExpect: 100-continue\r\n\r\n",
	"POST /v1/solve HTTP/1.1\r\nHost: a\r\nContent-Length: 007\r\n\r\n",
	"GET / HTTP/1.1\r\nHost: a\r\nX-Empty:\r\nX-Pad: \t v \t\r\n\r\n",
}

var hostileRequests = []string{
	"POST /v1/solve HTTP/1.1\r\nHost: a\r\nTransfer-Encoding: chunked\r\nContent-Length: 3\r\n\r\n0\r\n\r\n",
	"POST /v1/solve HTTP/1.1\r\nHost: a\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\n",
	"POST /v1/solve HTTP/1.1\r\nHost: a\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\n",
	"POST /v1/solve HTTP/1.1\r\nHost: a\r\ncontent-length: 5\r\n\r\n",
	"GET / HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n",
	"GET http://a/v1/solve HTTP/1.1\r\nHost: b\r\n\r\n",
	"GET /v1/%73olve HTTP/1.1\r\nHost: a\r\n\r\n",
	"GET /a#b HTTP/1.1\r\nHost: a\r\n\r\n",
	"GET /a? HTTP/1.1\r\nHost: a\r\n\r\n",
	"GET / HTTP/1.1\r\nHost: a\r\nX-Fold: a\r\n b\r\n\r\n",
	"GET / HTTP/1.1\nHost: a\r\n\r\n",
	"GET / HTTP/1.1\r\nHost: a\nX: b\r\n\r\n",
	"GET / HTTP/1.1\r\nHost: a\r\nX: b\x00c\r\n\r\n",
	"GET / HTTP/1.1\r\nHost: a\r\nPragma: no-cache\r\n\r\n",
	"GET / HTTP/1.1\r\nHost: a\r\nConnection: Close\r\n\r\n",
	"GET / HTTP/1.1\r\nHost: a\r\nTrailer: X\r\n\r\n",
	"GET / HTTP/1.1\r\nHost : a\r\n\r\n",
	"GET / HTTP/1.1\r\nHost: \r\n\r\n",
	"GET / HTTP/1.1\r\nHost: a b\r\n\r\n",
	"GET / HTTP/1.1\r\n\r\n",
	"GET / HTTP/1.0\r\nHost: a\r\n\r\n",
	"get / HTTP/1.1\r\nHost: a\r\n\r\n",
	"POST / HTTP/1.1\r\nHost: a\r\nContent-Length: +5\r\n\r\n",
	"POST / HTTP/1.1\r\nHost: a\r\nContent-Length: 99999999999999999999\r\n\r\n",
	" GET / HTTP/1.1\r\nHost: a\r\n\r\n",
	"\r\nGET / HTTP/1.1\r\nHost: a\r\n\r\n",
	"GET / HTTP/1.1\r\nHost: a\r\n",
}

var plainResponses = []string{
	ownerReply + "payload",
	"HTTP/1.1 504 Gateway Timeout\r\nContent-Length: 2\r\nContent-Type: application/json\r\n\r\n{}",
	"HTTP/1.1 204 No Content\r\nDate: Sun, 18 Oct 2026 01:52:28 GMT\r\n\r\n",
	"HTTP/1.1 304 Not Modified\r\nContent-Length: 5\r\n\r\n",
	"HTTP/1.1 200 OK\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
	"HTTP/1.1 200 OK\r\nContent-Length: 0\r\nConnection: keep-alive\r\n\r\n",
	"HTTP/1.1 200\r\nContent-Length: 1\r\n\r\nx",
	"HTTP/1.1 599 Whatever  \r\nContent-Length: 1\r\n\r\nx",
}

var hostileResponses = []string{
	"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: 3\r\n\r\n0\r\n\r\n",
	"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\n",
	"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\n",
	"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\n",
	"HTTP/1.1 200 OK\r\n\r\n",
	"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n",
	"HTTP/1.0 200 OK\r\nContent-Length: 0\r\n\r\n",
	"HTTP/1.1 200OK\r\nContent-Length: 0\r\n\r\n",
	"HTTP/1.1 20 OK\r\nContent-Length: 0\r\n\r\n",
	"HTTP/1.1 200 OK\nContent-Length: 0\r\n\r\n",
	"HTTP/1.1 200 OK\r\nContent-Length: 0\r\nX: a\x00\r\n\r\n",
	"HTTP/1.1 200 OK\r\nContent-Length: 0\r\nX: a\r\n b\r\n\r\n",
	"HTTP/1.1 200 OK\r\nContent-Length: 0\r\nPragma: no-cache\r\n\r\n",
	"HTTP/1.1 200 OK\r\nContent-Length: 0\r\nConnection: close, keep-alive\r\n\r\n",
	"HTTP/1.1 200 O\x01K\r\nContent-Length: 0\r\n\r\n",
}

// checkRequest holds the scanner to net/http on data: a head it takes,
// http.ReadRequest takes too, to the same request, from as many bytes.
func checkRequest(t *testing.T, data []byte) {
	var h Head
	if !Request(data, &h, new(Strings)) {
		return
	}
	br := bufio.NewReaderSize(bytes.NewReader(data), len(data)+16)
	req, err := http.ReadRequest(br)
	if err != nil {
		t.Fatalf("scanned %q, which http.ReadRequest refuses: %v", data, err)
	}
	if got := len(data) - br.Buffered(); got != h.N {
		t.Fatalf("%q: scanned %d bytes, ReadRequest read %d", data, h.N, got)
	}
	want := Head{
		Method: req.Method, Target: req.RequestURI, Path: req.URL.Path, Query: req.URL.RawQuery,
		Host: req.Host, Header: req.Header, ContentLength: req.ContentLength, Close: req.Close, N: h.N,
		vals: h.vals,
	}
	if !reflect.DeepEqual(h, want) {
		t.Fatalf("%q:\nscanned    %+v\nReadRequest %+v", data, h, want)
	}
	if u := (url.URL{Path: h.Path, RawQuery: h.Query}); *req.URL != u {
		t.Fatalf("%q: URL %#v, ReadRequest's %#v", data, u, *req.URL)
	}
	if req.Proto != "HTTP/1.1" || req.TransferEncoding != nil || req.Trailer != nil ||
		(req.Body == http.NoBody) != (h.ContentLength == 0) {
		t.Fatalf("%q: ReadRequest's %s request has TransferEncoding %v, Trailer %v, body %T", data, req.Proto, req.TransferEncoding, req.Trailer, req.Body)
	}
	if req.Host == "" || !ValidHost(req.Host) {
		t.Fatalf("%q: scanned a request the loop refuses for its Host %q", data, req.Host)
	}
}

// checkResponse is checkRequest for reply heads.
func checkResponse(t *testing.T, data []byte) {
	var h Head
	if !Response(data, &h) {
		return
	}
	br := bufio.NewReaderSize(bytes.NewReader(data), len(data)+16)
	resp, err := http.ReadResponse(br, &http.Request{Method: http.MethodPost})
	if err != nil {
		t.Fatalf("scanned %q, which http.ReadResponse refuses: %v", data, err)
	}
	if got := len(data) - br.Buffered(); got != h.N {
		t.Fatalf("%q: scanned %d bytes, ReadResponse read %d", data, h.N, got)
	}
	want := Head{
		Status: resp.Status, StatusCode: resp.StatusCode, Header: resp.Header,
		ContentLength: resp.ContentLength, Close: resp.Close, N: h.N,
		vals: h.vals,
	}
	if !reflect.DeepEqual(h, want) {
		t.Fatalf("%q:\nscanned      %+v\nReadResponse %+v", data, h, want)
	}
	if resp.Proto != "HTTP/1.1" || resp.TransferEncoding != nil || resp.Trailer != nil ||
		(resp.Body == http.NoBody) != (h.ContentLength == 0) {
		t.Fatalf("%q: ReadResponse's %s reply has TransferEncoding %v, Trailer %v, body %T", data, resp.Proto, resp.TransferEncoding, resp.Trailer, resp.Body)
	}
}

// FuzzRequestHead: every request head the scanner takes, http.ReadRequest
// takes too, with the same method, target, URL, Host, header map,
// ContentLength and Close, from the same number of bytes.
func FuzzRequestHead(f *testing.F) {
	for _, s := range requestSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkRequest)
}

// FuzzResponseHead: every reply head the scanner takes,
// http.ReadResponse takes too, with the same status, header map,
// ContentLength and Close, from the same number of bytes.
func FuzzResponseHead(f *testing.F) {
	for _, s := range responseSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkResponse)
}

// TestPlainHeadsAreScanned: the plain seeds — the heads the service
// meets on every hop among them — are the scanner's, and the hostile
// ones are not.
func TestPlainHeadsAreScanned(t *testing.T) {
	var h Head
	var in Strings
	for _, s := range plainRequests {
		if !Request([]byte(s), &h, &in) {
			t.Errorf("request head not scanned: %q", s)
		}
	}
	for _, s := range plainResponses {
		if !Response([]byte(s), &h) {
			t.Errorf("reply head not scanned: %q", s)
		}
	}
	for _, s := range hostileRequests {
		if Request([]byte(s), &h, &in) {
			t.Errorf("hostile request head scanned: %q", s)
		}
	}
	for _, s := range hostileResponses {
		if Response([]byte(s), &h) {
			t.Errorf("hostile reply head scanned: %q", s)
		}
	}
}

// TestRescannedHead: one Head and one Strings carry a run of heads as a
// connection's reads do — keys present in one and absent from the next,
// a query, a body length, a Connection header coming and going — and
// each scan is what a fresh one gives. Once every string has been made,
// a head scanned again makes nothing: no copy, no map, no values.
func TestRescannedHead(t *testing.T) {
	var (
		h  Head
		in Strings
	)
	heads := append(append([]string{}, plainRequests...), plainRequests...)
	for _, s := range heads {
		var fresh Head
		if !Request([]byte(s), &h, &in) || !Request([]byte(s), &fresh, new(Strings)) {
			t.Fatalf("not scanned: %q", s)
		}
		fresh.vals = h.vals
		if !reflect.DeepEqual(h, fresh) {
			t.Fatalf("%q:\nrescanned %+v\nfresh     %+v", s, h, fresh)
		}
	}
	buf := []byte(goClientHead)
	if !Request(buf, &h, &in) {
		t.Fatal("not scanned")
	}
	if n := testing.AllocsPerRun(100, func() { Request(buf, &h, &in) }); n != 0 {
		t.Errorf("%.0f allocations to scan a head again, want 0", n)
	}
	if buf[0] = 'X'; h.Method != "POST" {
		t.Errorf("the scanned method follows the buffer: %q", h.Method)
	}
}

// TestStringsAreBounded: a table holds at most maxStrings strings, none
// longer than maxStringLen, and a string it does not hold is still
// equal to its bytes.
func TestStringsAreBounded(t *testing.T) {
	var in Strings
	for i := range 3 * maxStrings {
		b := []byte(strings.Repeat("x", i%(2*maxStringLen)))
		if s := in.String(b); s != string(b) {
			t.Fatalf("String(%q) = %q", b, s)
		}
		if len(in.m) > maxStrings {
			t.Fatalf("%d strings held, want <= %d", len(in.m), maxStrings)
		}
		for k := range in.m {
			if len(k) > maxStringLen {
				t.Fatalf("a string of %d bytes held, want <= %d", len(k), maxStringLen)
			}
		}
	}
}

// TestBodyFraming: Body hands out exactly its length, io.EOF with the
// last bytes, and io.ErrUnexpectedEOF when the connection ends short.
func TestBodyFraming(t *testing.T) {
	var b Body
	b.Reset(bufio.NewReader(strings.NewReader("abcdefNEXT")), 6)
	p := make([]byte, 4)
	if n, err := b.Read(p); n != 4 || err != nil {
		t.Fatalf("first read: %d, %v", n, err)
	}
	if n, err := b.Read(p); n != 2 || err != io.EOF || string(p[:n]) != "ef" {
		t.Fatalf("last read: %d %q, %v; want 2 \"ef\", EOF", n, p[:n], err)
	}
	if n, err := b.Read(p); n != 0 || err != io.EOF {
		t.Fatalf("read past the end: %d, %v", n, err)
	}
	b.Reset(bufio.NewReader(strings.NewReader("ab")), 6)
	if got, err := io.ReadAll(&b); string(got) != "ab" || err != io.ErrUnexpectedEOF {
		t.Fatalf("short body: %q, %v; want \"ab\", ErrUnexpectedEOF", got, err)
	}
}

// BenchmarkHeadScan puts the scanner beside net/http on the same heads:
// the bench client's request head and an owner's reply head, each read
// off a bufio.Reader that holds it whole.
func BenchmarkHeadScan(b *testing.B) {
	run := func(b *testing.B, head string, read func(*bufio.Reader) error) {
		r := strings.NewReader(head)
		br := bufio.NewReader(r)
		b.ReportAllocs()
		for b.Loop() {
			r.Reset(head)
			br.Reset(r)
			if err := read(br); err != nil {
				b.Fatal(err)
			}
		}
	}
	scanned := func(scan func([]byte, *Head) bool) func(*bufio.Reader) error {
		return func(br *bufio.Reader) error {
			buf, _ := br.Peek(1)
			buf, _ = br.Peek(br.Buffered())
			var h Head
			if !scan(buf, &h) {
				return io.ErrUnexpectedEOF
			}
			_, err := br.Discard(h.N)
			return err
		}
	}
	var in Strings
	b.Run("request/scan", func(b *testing.B) {
		run(b, goClientHead, scanned(func(buf []byte, h *Head) bool { return Request(buf, h, &in) }))
	})
	b.Run("request/net-http", func(b *testing.B) {
		run(b, goClientHead, func(br *bufio.Reader) error { _, err := http.ReadRequest(br); return err })
	})
	b.Run("response/scan", func(b *testing.B) { run(b, ownerReply, scanned(Response)) })
	b.Run("response/net-http", func(b *testing.B) {
		req := &http.Request{Method: http.MethodPost}
		run(b, ownerReply, func(br *bufio.Reader) error { _, err := http.ReadResponse(br, req); return err })
	})
}
