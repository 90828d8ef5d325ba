package server

import (
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/pkg/steady/control"
	"repro/pkg/steady/obs"
)

// This file is the ingest path of POST /v1/deployments/{id}/telemetry,
// the one request a live deployment sends continuously: read the body
// once, scan it once, hand the batch to control.Manager.Observe.

// telemetryDecode counts which reader took a telemetry body: the
// scanner below, or the strict reflective decoder it declined to.
type telemetryDecode struct{ scan, strict *obs.Counter }

func newTelemetryDecode(reg *obs.Registry) telemetryDecode {
	paths := reg.CounterVec("steady_telemetry_decode_total",
		"Telemetry bodies by the reader that took them: the one-pass scanner of the plain spelling, or the strict reflective decoder.", "path")
	return telemetryDecode{scan: paths.With("scan"), strict: paths.With("strict")}
}

// batchPool recycles the observation slices the scanner fills.
// Manager.Observe does not retain a batch, so a slice goes back as
// soon as the handler returns — cleared, because its strings point
// into a request body that must not outlive the request.
var batchPool = sync.Pool{New: func() any { return new([]control.Observation) }}

// maxPooledBatch keeps one enormous batch from pinning its slice in
// the pool (the encPool rule): 4096 observations is four times the
// largest platform the default limits admit.
const maxPooledBatch = 4096

func releaseBatch(buf *[]control.Observation) {
	if cap(*buf) <= maxPooledBatch {
		clear(*buf)
		batchPool.Put(buf)
	}
}

func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	raw, ok := s.readBody(w, r, "decode request")
	if !ok {
		return
	}
	buf := batchPool.Get().(*[]control.Observation)
	batch, ok := scanTelemetry(raw, (*buf)[:0])
	*buf = batch // whatever was scanned, a declined prefix too, is cleared on release
	defer releaseBatch(buf)
	if ok {
		s.telemetry.scan.Inc()
	} else {
		s.telemetry.strict.Inc()
		var req TelemetryRequest
		if err := decodeStrict(raw, &req); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		batch = req.Observations
	}
	n, err := s.manager.Observe(r.PathValue("id"), batch)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, TelemetryResponse{Accepted: n})
}

// scanTelemetry reads a TelemetryRequest in its plain spelling in one
// pass, appending the observations to dst:
//
//	{"observations":[{"node":"P2","value":2.05},{"from":"P1","to":"P2","value":1.5}]}
//
// with any JSON whitespace between tokens, the keys node, from, to and
// value spelled exactly so and at most once per object, names without
// escapes, and numbers in the JSON grammar — what json.Marshal, an
// indenting encoder and a hand-written curl body produce. It is a
// second reader of the language decodeStrict accepts, not a second
// definition of it: on anything else — another key, or another case of
// one (encoding/json folds case), a duplicate key (the last one wins
// there), an escape, a null, a number strconv refuses, a byte-order
// mark, anything after the closing brace — it reports false without an
// opinion, and the body goes to decodeStrict, which owns every verdict
// and every error text. When it reports true, decodeStrict would have
// accepted the body and produced the same observations, bit for bit
// (FuzzTelemetryScan).
//
// The names it returns are substrings of one string copy of raw.
func scanTelemetry(raw []byte, dst []control.Observation) ([]control.Observation, bool) {
	sc := scanner{s: string(raw)}
	if !sc.token('{') || !sc.key("observations") || !sc.token('[') {
		return dst, false
	}
	if !sc.token(']') {
		for {
			dst = append(dst, control.Observation{})
			if !sc.observation(&dst[len(dst)-1]) {
				return dst, false
			}
			if sc.token(']') {
				break
			}
			if !sc.token(',') {
				return dst, false
			}
		}
	}
	if !sc.token('}') {
		return dst, false
	}
	sc.space()
	return dst, sc.i == len(sc.s)
}

// scanner is a cursor over a request body. Every method either
// consumes what it names and reports true, or reports false with the
// cursor wherever it stopped — the caller gives up on the first false.
type scanner struct {
	s string
	i int
}

// isSpace reports whether c is JSON whitespace.
func isSpace(c byte) bool { return c == ' ' || c == '\n' || c == '\t' || c == '\r' }

func (sc *scanner) space() {
	for sc.i < len(sc.s) && isSpace(sc.s[sc.i]) {
		sc.i++
	}
}

// token consumes whitespace, then c if it is next.
func (sc *scanner) token(c byte) bool {
	sc.space()
	if sc.i < len(sc.s) && sc.s[sc.i] == c {
		sc.i++
		return true
	}
	return false
}

// key consumes the object key name and its colon.
func (sc *scanner) key(name string) bool {
	k, ok := sc.str()
	return ok && k == name && sc.token(':')
}

// str consumes a string that stands for itself: no escape, no control
// byte, valid UTF-8 (encoding/json replaces what is not).
func (sc *scanner) str() (string, bool) {
	if !sc.token('"') {
		return "", false
	}
	start := sc.i
	var union byte // of the string's bytes: under RuneSelf, it is ASCII
	for ; sc.i < len(sc.s); sc.i++ {
		switch c := sc.s[sc.i]; {
		case c == '"':
			v := sc.s[start:sc.i]
			sc.i++
			return v, union < utf8.RuneSelf || utf8.ValidString(v)
		case c == '\\' || c < 0x20:
			return "", false
		default:
			union |= c
		}
	}
	return "", false
}

// number consumes a JSON number and parses it with the call
// encoding/json itself makes, so the bits are the same.
func (sc *scanner) number() (float64, bool) {
	sc.space()
	s, start := sc.s, sc.i
	i := start
	if i < len(s) && s[i] == '-' {
		i++
	}
	if i < len(s) && s[i] == '0' {
		i++
	} else if i = digits(s, i); i < 0 {
		return 0, false
	}
	if i < len(s) && s[i] == '.' {
		if i = digits(s, i+1); i < 0 {
			return 0, false
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if i = digits(s, i); i < 0 {
			return 0, false
		}
	}
	v, err := strconv.ParseFloat(s[start:i], 64)
	sc.i = i
	return v, err == nil
}

// digits returns the end of the run of decimal digits starting at
// s[i], -1 if there is none.
func digits(s string, i int) int {
	from := i
	for i < len(s) && '0' <= s[i] && s[i] <= '9' {
		i++
	}
	if i == from {
		return -1
	}
	return i
}

// observation consumes one object of the observations array.
func (sc *scanner) observation(o *control.Observation) bool {
	if !sc.token('{') {
		return false
	}
	if sc.token('}') {
		return true
	}
	const (
		node = 1 << iota
		from
		to
		value
	)
	seen := 0
	for {
		k, ok := sc.str()
		if !ok || !sc.token(':') {
			return false
		}
		var field int
		var name *string
		switch k {
		case "node":
			field, name = node, &o.Node
		case "from":
			field, name = from, &o.From
		case "to":
			field, name = to, &o.To
		case "value":
			field = value
		default:
			return false
		}
		if seen&field != 0 {
			return false
		}
		seen |= field
		if name != nil {
			*name, ok = sc.str()
		} else {
			o.Value, ok = sc.number()
		}
		if !ok {
			return false
		}
		if sc.token('}') {
			return true
		}
		if !sc.token(',') {
			return false
		}
	}
}
