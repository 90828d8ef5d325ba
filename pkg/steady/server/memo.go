package server

import (
	"bytes"
	"crypto/sha256"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"weak"

	"repro/pkg/steady"
	"repro/pkg/steady/obs"
	"repro/pkg/steady/rat"
)

// solveMemo is the hot path of POST /v1/solve: a bounded table from
// the SHA-256 of a request body to what the head of handleSolve
// computes from those bytes, so a repeated body skips strict JSON,
// platform decode, validation and steady.Fingerprint. Body → record is
// a pure function on one server (the limits it was checked against are
// fixed at New), results stay in batch.Cache alone, and only bodies
// that passed every check are remembered — so a record cannot go
// stale, a bad body is re-checked (and refused the same way) every
// time, and a collision-resistant digest keeps client- or peer-
// supplied bytes from aliasing another request's key.
type solveMemo struct {
	mu    sync.RWMutex
	m     map[[sha256.Size]byte]*solveRecord
	limit int

	hits, misses *obs.Counter
}

// solveRecord is what one accepted request body stands for.
type solveRecord struct {
	key    string // batch.Key(fingerprint, solver name): the cache key
	solver string // steady.Solver.Name() of the request's spec
	// reply is the rendered reply of the record's first cache hit,
	// reused while the cache keeps returning the result it was rendered
	// from. A miss never stores one: all-miss traffic pins no bytes.
	reply atomic.Pointer[solveReply]
}

// solveReply is a SolveResponse rendered up to its two per-request
// fields, and the cached result it renders — held weakly, so a record
// pins its reply bytes but never a result the cache has evicted.
type solveReply struct {
	res  weak.Pointer[steady.Result]
	head []byte
}

// The table serves the solution cache, so it is bounded by it:
// memoRecordsPerEntry records for every entry the cache may hold (a
// few solvers and spellings per platform, plus slack so a hot set that
// just fits the cache is not reset under its feet), and never more
// than maxMemoRecords, which is also the bound for an unbounded cache.
// At the limit the table resets rather than grows — forgetting costs
// one full decode per body — so all-miss traffic just cycles it, and a
// record does not outlive its evicted cache entry by much.
const (
	memoRecordsPerEntry = 4
	maxMemoRecords      = 65536
)

// newSolveMemo sizes the table for a cache of cacheBound entries
// (<= 0: unbounded). reg may be nil.
func newSolveMemo(cacheBound int, reg *obs.Registry) *solveMemo {
	limit := maxMemoRecords
	if cacheBound > 0 && cacheBound < maxMemoRecords/memoRecordsPerEntry {
		limit = cacheBound * memoRecordsPerEntry
	}
	outcomes := reg.CounterVec("steady_solve_memo_total",
		"POST /v1/solve bodies by whether the body-digest memo knew them.", "outcome")
	return &solveMemo{
		m:      make(map[[sha256.Size]byte]*solveRecord),
		limit:  limit,
		hits:   outcomes.With("hit"),
		misses: outcomes.With("miss"),
	}
}

// lookup returns the record of a body digest, nil for a body not seen
// since the last reset.
func (sm *solveMemo) lookup(digest [sha256.Size]byte) *solveRecord {
	sm.mu.RLock()
	rec := sm.m[digest]
	sm.mu.RUnlock()
	if rec != nil {
		sm.hits.Inc()
	} else {
		sm.misses.Inc()
	}
	return rec
}

// remember records an accepted body. Concurrent first requests of one
// body share the record that got there first.
func (sm *solveMemo) remember(digest [sha256.Size]byte, key, solver string) *solveRecord {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if rec := sm.m[digest]; rec != nil {
		return rec
	}
	if len(sm.m) >= sm.limit {
		sm.m = make(map[[sha256.Size]byte]*solveRecord)
	}
	rec := &solveRecord{key: key, solver: solver}
	sm.m[digest] = rec
	return rec
}

// writeSolve is the one writer of 200 /v1/solve replies. Everything
// before cache_hit is a function of the result alone: it is appended by
// solveHead — once per cached result for a remembered body, which then
// costs a copy — and the two per-request fields are appended after it,
// all in the shared indenting encoder's format, so the bytes are those
// of writeJSON of the same SolveResponse (TestSolveReplyMatchesEncoder
// keeps the struct-and-reflection rendering as the reference).
func writeSolve(w http.ResponseWriter, rec *solveRecord, res *steady.Result, hit bool, elapsedMicros int64) {
	e := encPool.Get().(*encBuf)
	e.buf.Reset()
	if rp := rec.reply.Load(); hit && rp != nil && rp.res.Value() == res {
		e.buf.Write(rp.head)
	} else {
		if err := e.solveHead(res); err != nil {
			encodeFailed(w)
			return
		}
		if hit {
			rec.reply.Store(&solveReply{res: weak.Make(res), head: bytes.Clone(e.buf.Bytes())})
		}
	}
	e.buf.WriteString("  \"cache_hit\": ")
	e.buf.Write(strconv.AppendBool(e.buf.AvailableBuffer(), hit))
	e.buf.WriteString(",\n  \"elapsed_us\": ")
	e.buf.Write(strconv.AppendInt(e.buf.AvailableBuffer(), elapsedMicros, 10))
	e.buf.WriteString("\n}\n")
	e.send(w, http.StatusOK)
}

// solveHead appends the indented encoding of a SolveResponse from its
// opening brace up to the cache_hit key: the fields that are a function
// of the result, in declaration order, with nodes, links, a node's rate
// and trees omitted when empty or zero. An n=48 reply is ≈ 300 strings;
// rendering them through reflection and one fmt call per rational was a
// tenth of a cold miss.
func (e *encBuf) solveHead(res *steady.Result) error {
	e.buf.WriteString("{\n  \"solver\": ")
	e.str(res.Solver)
	e.buf.WriteString(",\n  \"problem\": ")
	e.str(res.Problem)
	e.buf.WriteString(",\n  \"model\": ")
	e.str(res.Model.String())
	e.buf.WriteString(",\n  \"fingerprint\": ")
	e.str(res.Fingerprint)
	e.buf.WriteString(",\n  \"throughput\": ")
	e.rat(res.Throughput)
	e.buf.WriteString(",\n  \"value\": ")
	if err := e.scalar(res.ThroughputFloat()); err != nil {
		return err // not a finite float
	}
	if len(res.Nodes) > 0 {
		e.buf.WriteString(",\n  \"nodes\": [")
		for i, n := range res.Nodes {
			if i > 0 {
				e.buf.WriteByte(',')
			}
			e.buf.WriteString("\n    {\n      \"name\": ")
			e.str(n.Name)
			e.buf.WriteString(",\n      \"alpha\": ")
			e.rat(n.Alpha)
			if !n.Rate.IsZero() {
				e.buf.WriteString(",\n      \"rate\": ")
				e.rat(n.Rate)
			}
			e.buf.WriteString("\n    }")
		}
		e.buf.WriteString("\n  ]")
	}
	if len(res.Links) > 0 {
		e.buf.WriteString(",\n  \"links\": [")
		for i, l := range res.Links {
			if i > 0 {
				e.buf.WriteByte(',')
			}
			e.buf.WriteString("\n    {\n      \"from\": ")
			e.str(l.From)
			e.buf.WriteString(",\n      \"to\": ")
			e.str(l.To)
			e.buf.WriteString(",\n      \"busy\": ")
			e.rat(l.Busy)
			e.buf.WriteString("\n    }")
		}
		e.buf.WriteString("\n  ]")
	}
	if res.Trees != 0 {
		e.buf.WriteString(",\n  \"trees\": ")
		e.buf.Write(strconv.AppendInt(e.buf.AvailableBuffer(), int64(res.Trees), 10))
	}
	e.buf.WriteString(",\n")
	return nil
}

// scalar appends the encoder's rendering of one scalar: the value, not
// the newline Encode ends it with.
func (e *encBuf) scalar(v any) error {
	if err := e.enc.Encode(v); err != nil {
		return err
	}
	e.buf.Truncate(e.buf.Len() - 1)
	return nil
}

// str appends s as a JSON string. A name of printable ASCII with none
// of the five characters the HTML-safe encoder escapes stands for
// itself; every other string is the encoder's to spell (escapes,
// U+2028/9, invalid UTF-8).
func (e *encBuf) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			_ = e.scalar(s) // a string always encodes
			return
		}
	}
	e.buf.WriteByte('"')
	e.buf.WriteString(s)
	e.buf.WriteByte('"')
}

// rat appends x as the JSON string of its text form, which is digits,
// '-' and '/'.
func (e *encBuf) rat(x rat.Rat) {
	e.buf.WriteByte('"')
	text, _ := x.AppendText(e.buf.AvailableBuffer()) // never fails
	e.buf.Write(text)
	e.buf.WriteByte('"')
}
