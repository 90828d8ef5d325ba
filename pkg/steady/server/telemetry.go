package server

import (
	"net/http"
	"strconv"
	"sync"
	"unsafe"

	"repro/internal/jsonscan"
	"repro/pkg/steady/control"
)

// This file is the ingest path of POST /v1/deployments/{id}/telemetry,
// the one request a live deployment sends continuously: read the body
// once, scan it in place, hand the batch to control.Manager.Observe.

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
	// The body is read into a buffer from bodyPool, as a /v1/solve body
	// is, and the scanner's names are substrings of it. The buffer goes
	// back once the reply is out, and nothing reads it after: Observe
	// keeps neither the batch nor a string of it (it resolves names
	// through its deployment's own), releaseBatch clears the batch,
	// every error text is a formatted copy, and the strict path decodes
	// into fresh strings (TestTelemetryBodyIsNotRetained).
	body := bodyPool.Get().(*[]byte)
	raw, ok := s.readBody(w, r, "decode request", *body)
	defer putBody(body, raw)
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
	writeAccepted(w, n)
}

// writeAccepted answers an accepted batch with the bytes writeJSON
// writes for TelemetryResponse{Accepted: n}, appended rather than
// encoded (TestTelemetryReplyBytes).
func writeAccepted(w http.ResponseWriter, n int) {
	e := encPool.Get().(*encBuf)
	e.buf.Reset()
	e.buf.WriteString("{\n  \"accepted\": ")
	e.buf.Write(strconv.AppendInt(e.buf.AvailableBuffer(), int64(n), 10))
	e.buf.WriteString("\n}\n")
	e.send(w, http.StatusOK)
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
// raw is read in place (unsafe.String): the names it returns are
// substrings of raw itself, valid for as long as raw is not written —
// in handleTelemetry, until the reply is out.
func scanTelemetry(raw []byte, dst []control.Observation) ([]control.Observation, bool) {
	doc := unsafe.String(unsafe.SliceData(raw), len(raw))
	c := jsonscan.New(doc)
	ok := c.Token('{') && c.Key("observations") && c.Array(func() bool {
		dst = append(dst, control.Observation{})
		return scanObservation(c, doc, &dst[len(dst)-1])
	}) && c.Token('}') && c.End()
	return dst, ok
}

// observationKeys are an observation's keys in the order Fields takes
// them: the three names, then the value.
var observationKeys = jsonscan.NewKeys("node", "from", "to", "value")

// scanObservation consumes one object of the observations array of doc.
func scanObservation(c *jsonscan.Cursor, doc string, o *control.Observation) bool {
	var names [3]jsonscan.Span
	var value [1]float64
	if !c.Fields(observationKeys, names[:], value[:]) {
		return false
	}
	o.Node, o.From, o.To, o.Value = names[0].In(doc), names[1].In(doc), names[2].In(doc), value[0]
	return true
}
