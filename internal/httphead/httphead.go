// Package httphead reads HTTP/1.1 heads in their plain spelling — what
// Go's http.Client, curl and the cluster's peer transport send, and what
// the service's connection loop answers — in front of net/http's
// ReadRequest and ReadResponse, which read every spelling. It is a
// second reader of their language, never a second definition of it:
// Request and Response take a head only when it is already whole in the
// caller's buffer and spelled plainly, and otherwise report false
// without an opinion, so that net/http keeps every verdict, deadline,
// size limit and error text.
//
// The plain spelling is:
//   - the version HTTP/1.1, and every line ending in CRLF;
//   - a request: an upper-case method of at most 16 letters and an
//     origin-form target whose path holds only bytes that need no
//     escaping (no '%', no '#'), and whose query, if any, is not empty;
//   - a reply: a status from 200 to 599 and a reason of printable bytes;
//   - header keys of letters, digits and '-', in canonical case, each at
//     most once, with values of printable bytes and tabs;
//   - a request with exactly one Host, which passes ValidHost;
//   - at most one Content-Length of at most 18 digits, required on a
//     reply unless its status is 204 or 304;
//   - no Transfer-Encoding, Trailer or Pragma header, and a Connection
//     header, if any, of exactly "close" or "keep-alive";
//   - no obs-fold, bare LF, NUL or other control byte, and at most
//     32 header lines.
package httphead

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"slices"
	"strings"
)

// maxFields is the most header lines a plain head has.
const maxFields = 32

// Head is a scanned head. Nothing in it points into the caller's
// buffer: a request's strings come from the caller's Strings, a reply's
// are substrings of one copy of its head.
type Head struct {
	// Method, Target, Path and Query are a request line's: the target
	// as sent (http.Request.RequestURI) and its path and query, split at
	// the first '?'.
	Method, Target, Path, Query string
	// Status ("200 OK") and StatusCode are a reply's status line.
	Status     string
	StatusCode int
	// Host is a request's Host header.
	Host string
	// Header holds every header line as net/http keys it, but the two
	// it moves out: a request's Host, and a reply's Connection: close.
	Header http.Header
	// ContentLength is the body's length: the Content-Length a request
	// sent, else 0; a reply's, or 0 on a 204 or 304.
	ContentLength int64
	// Close reports Connection: close.
	Close bool
	// N is the head's length in bytes, its closing blank line included.
	N int

	vals []string // Header's values, one array for all of them
}

// field is one header line's key and value, as offsets into the head.
type field struct{ k0, k1, v0, v1 int }

// Request scans the request head at the start of buf into h and reports
// whether it is whole and plain. h is filled only on true; its strings
// come from in, and its header map and the array of its values are
// cleared and refilled when it has them. A head scanned into a Head used
// before, whose strings in already holds, allocates nothing.
func Request(buf []byte, h *Head, in *Strings) bool {
	end := bytes.Index(buf, []byte("\r\n\r\n"))
	if end < 0 {
		return false
	}
	n := end + 4
	head := buf[:n]
	eol := bytes.IndexByte(head, '\n') - 1 // the request line's CR
	if eol < 1 || head[eol] != '\r' {
		return false
	}
	line := head[:eol]
	sp := bytes.IndexByte(line, ' ')
	if sp < 1 || sp > 16 || !upper(line[:sp]) {
		return false
	}
	t0 := sp + 1
	t1 := t0 + bytes.IndexByte(line[t0:], ' ')
	if t1 < t0 || string(line[t1:]) != " HTTP/1.1" {
		return false
	}
	q := targetQuery(line[t0:t1])
	if q < 0 {
		return false
	}
	var fields [maxFields]field
	nf, host, cl, conn, ok := scanFields(head, eol+2, &fields)
	if !ok || host < 0 || fields[host].v0 == fields[host].v1 || !ValidHost(head[fields[host].v0:fields[host].v1]) {
		return false
	}
	target := in.String(line[t0:t1])
	*h = Head{
		Method: in.String(line[:sp]),
		Target: target,
		Path:   target,
		Host:   in.String(head[fields[host].v0:fields[host].v1]),
		N:      n,
		Header: h.Header,
		vals:   h.vals,
	}
	h.fill(fields[:nf], host, func(i, j int) string { return in.String(head[i:j]) })
	if q > 0 {
		h.Path, h.Query = target[:q], target[q+1:]
	}
	if cl >= 0 {
		h.ContentLength = digits(head[fields[cl].v0:fields[cl].v1])
	}
	h.Close = conn >= 0 && string(head[fields[conn].v0:fields[conn].v1]) == "close"
	return true
}

// Response scans the head of a reply to a request other than HEAD at
// the start of buf into h and reports whether it is whole and plain. h
// is filled only on true.
func Response(buf []byte, h *Head) bool {
	end := bytes.Index(buf, []byte("\r\n\r\n"))
	if end < 0 {
		return false
	}
	n := end + 4
	head := buf[:n]
	eol := bytes.IndexByte(head, '\n') - 1
	if eol < 1 || head[eol] != '\r' {
		return false
	}
	line := head[:eol]
	if len(line) < 12 || string(line[:9]) != "HTTP/1.1 " ||
		line[9] < '2' || line[9] > '5' || !digit(line[10]) || !digit(line[11]) ||
		len(line) > 12 && line[12] != ' ' {
		return false
	}
	for _, c := range line[12:] {
		if c < ' ' || c > '~' {
			return false
		}
	}
	code := int(line[9]-'0')*100 + int(line[10]-'0')*10 + int(line[11]-'0')
	var fields [maxFields]field
	nf, _, cl, conn, ok := scanFields(head, eol+2, &fields) // a reply's Host is an ordinary header
	bodiless := code == http.StatusNoContent || code == http.StatusNotModified
	if !ok || cl < 0 && !bodiless {
		return false
	}
	s := string(head)
	closing := conn >= 0 && s[fields[conn].v0:fields[conn].v1] == "close"
	drop := -1
	if closing {
		drop = conn
	}
	*h = Head{
		Status:     s[9:eol],
		StatusCode: code,
		Close:      closing,
		N:          n,
	}
	h.fill(fields[:nf], drop, func(i, j int) string { return s[i:j] })
	if cl >= 0 && !bodiless {
		h.ContentLength = digits(head[fields[cl].v0:fields[cl].v1])
	}
	return true
}

// scanFields checks the header lines of head from offset i, up to its
// closing blank line, and records them in fields. It returns their
// number and the indices of the Host, Content-Length and Connection
// lines, -1 when absent.
func scanFields(head []byte, i int, fields *[maxFields]field) (nf, host, cl, conn int, ok bool) {
	host, cl, conn = -1, -1, -1
	for i < len(head)-2 {
		if nf == maxFields {
			return 0, 0, 0, 0, false
		}
		eol := i + bytes.IndexByte(head[i:], '\n') - 1
		if eol < i || head[eol] != '\r' {
			return 0, 0, 0, 0, false
		}
		colon := i + bytes.IndexByte(head[i:eol], ':')
		if colon <= i || !canonicalKey(head[i:colon]) {
			return 0, 0, 0, 0, false
		}
		v0, v1 := colon+1, eol
		for j := v0; j < v1; j++ {
			if c := head[j]; (c < ' ' || c > '~') && c != '\t' {
				return 0, 0, 0, 0, false
			}
		}
		for v0 < v1 && (head[v0] == ' ' || head[v0] == '\t') {
			v0++
		}
		for v1 > v0 && (head[v1-1] == ' ' || head[v1-1] == '\t') {
			v1--
		}
		key := head[i:colon]
		for _, f := range fields[:nf] {
			if bytes.Equal(head[f.k0:f.k1], key) {
				return 0, 0, 0, 0, false
			}
		}
		switch string(key) {
		case "Host":
			host = nf
		case "Content-Length":
			if v1-v0 < 1 || v1-v0 > 18 || !allDigits(head[v0:v1]) {
				return 0, 0, 0, 0, false
			}
			cl = nf
		case "Connection":
			if v := head[v0:v1]; string(v) != "close" && string(v) != "keep-alive" {
				return 0, 0, 0, 0, false
			}
			conn = nf
		case "Transfer-Encoding", "Trailer", "Pragma":
			return 0, 0, 0, 0, false
		}
		fields[nf] = field{i, colon, v0, v1}
		nf++
		i = eol + 2
	}
	return nf, host, cl, conn, true
}

// fill sets h.Header to fields, leaving out the field at index drop,
// with str making their strings from offsets into the head. The map and
// the one array of values for all of them are h's own when it has
// them, else made.
func (h *Head) fill(fields []field, drop int, str func(i, j int) string) {
	if h.Header == nil {
		h.Header = make(http.Header, len(fields))
	} else {
		clear(h.Header)
	}
	vals := slices.Grow(h.vals[:0], len(fields))[:len(fields)]
	for i, f := range fields {
		if i == drop {
			vals[i] = ""
			continue
		}
		vals[i] = str(f.v0, f.v1)
		h.Header[str(f.k0, f.k1)] = vals[i : i+1 : i+1]
	}
	h.vals = vals
}

// targetQuery checks an origin-form target and returns the index of its
// '?', 0 when it has none, or -1 when it is not plain.
func targetQuery(t []byte) int {
	if len(t) == 0 || t[0] != '/' {
		return -1
	}
	q := 0
	for i, c := range t {
		switch {
		case q > 0:
			if c <= ' ' || c > '~' || c == '#' {
				return -1
			}
		case c == '?':
			q = i
		case !pathByte(c):
			return -1
		}
	}
	if q > 0 && q == len(t)-1 {
		return -1 // an empty query: url.URL.ForceQuery
	}
	return q
}

// pathByte reports whether c stands for itself in a URL path: the bytes
// url.URL's EscapedPath leaves as they are.
func pathByte(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || digit(c) || strings.IndexByte("-_.~$&+,/:;=@", c) >= 0
}

// canonicalKey reports whether k is a header key of letters, digits and
// '-' in the case textproto.CanonicalMIMEHeaderKey gives it.
func canonicalKey(k []byte) bool {
	up := true
	for _, c := range k {
		switch {
		case 'a' <= c && c <= 'z':
			if up {
				return false
			}
		case 'A' <= c && c <= 'Z':
			if !up {
				return false
			}
		case !digit(c) && c != '-':
			return false
		}
		up = c == '-'
	}
	return true
}

func upper(b []byte) bool {
	for _, c := range b {
		if c < 'A' || c > 'Z' {
			return false
		}
	}
	return true
}

func digit(c byte) bool { return '0' <= c && c <= '9' }

func allDigits(b []byte) bool {
	for _, c := range b {
		if !digit(c) {
			return false
		}
	}
	return true
}

// digits is the value of at most 18 decimal digits.
func digits(b []byte) int64 {
	var n int64
	for _, c := range b {
		n = n*10 + int64(c-'0')
	}
	return n
}

// Strings makes the strings of the heads one connection reads and the
// replies it writes. Each is looked up by its bytes and made once, so a
// connection that sends the same head again makes no new string, and
// none points into the caller's buffer. It holds at most maxStrings
// strings of at most maxStringLen bytes: a longer one is made each time,
// and a full table starts over. The zero value is empty and ready.
type Strings struct{ m map[string]string }

const (
	// maxStrings holds a connection's usual heads whole: a connection of
	// bench/'s hot_hit meets ≈ 70 distinct strings, its request and
	// reply lengths among them, and one of cluster_fwd or control_drift
	// ≈ 55.
	maxStrings   = 256
	maxStringLen = 128
)

// String returns a string equal to b.
func (t *Strings) String(b []byte) string {
	if s, ok := t.m[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(b) > maxStringLen {
		return s
	}
	if t.m == nil {
		t.m = make(map[string]string)
	} else if len(t.m) == maxStrings {
		clear(t.m)
	}
	t.m[s] = s
	return s
}

// ValidHost reports whether h is a plausible Host header value: the
// bytes net/http's server accepts there.
func ValidHost[T string | []byte](h T) bool {
	for i := 0; i < len(h); i++ {
		b := h[i]
		switch {
		case 'a' <= b && b <= 'z', 'A' <= b && b <= 'Z', '0' <= b && b <= '9':
		case strings.IndexByte("!$%&'()*+,-.:;=[]_~", b) >= 0:
		default:
			return false
		}
	}
	return true
}

// Body is a body of known length read from a connection's reader, as
// net/http frames one: io.EOF comes with its last bytes, and a
// connection that ends short of it is io.ErrUnexpectedEOF. A connection
// keeps one and resets it for each message.
type Body struct {
	r *bufio.Reader
	n int64
}

// Close does nothing: what is left of the body is the connection's to
// read past or to close on.
func (b *Body) Close() error { return nil }

// Reset points b at the next n bytes of r.
func (b *Body) Reset(r *bufio.Reader, n int64) { b.r, b.n = r, n }

func (b *Body) Read(p []byte) (int, error) {
	if b.n <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > b.n {
		p = p[:b.n]
	}
	n, err := b.r.Read(p)
	b.n -= int64(n)
	switch {
	case b.n == 0:
		err = io.EOF
	case err == io.EOF:
		err = io.ErrUnexpectedEOF
	}
	return n, err
}
