package server

// White-box tests of the first-seen /v1/solve path: the plain-spelling
// scanner of the request envelope in front of the strict decoder, what
// the server retains of a body, and the in-package rulers of decode.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"repro/pkg/steady"
	"repro/pkg/steady/obs"
	"repro/pkg/steady/platform"
)

func indentedPlatform(tb testing.TB, p *platform.Platform) string {
	tb.Helper()
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		tb.Fatal(err)
	}
	return strings.TrimSpace(buf.String())
}

// apiExample is the curl body of docs/API.md's POST /v1/solve section.
const apiExample = `{
  "problem": "masterslave",
  "root": "P1",
  "platform": {
    "nodes": [
      {"name": "P1", "w": "3"}, {"name": "P2", "w": "2"},
      {"name": "P3", "w": "3"}, {"name": "P4", "w": "1"},
      {"name": "P5", "w": "4"}, {"name": "P6", "w": "2"}
    ],
    "edges": [
      {"from": "P1", "to": "P2", "c": "1"}, {"from": "P2", "to": "P1", "c": "1"},
      {"from": "P1", "to": "P3", "c": "2"}, {"from": "P3", "to": "P1", "c": "2"},
      {"from": "P2", "to": "P4", "c": "1"}, {"from": "P4", "to": "P2", "c": "1"},
      {"from": "P2", "to": "P5", "c": "2"}, {"from": "P5", "to": "P2", "c": "2"},
      {"from": "P3", "to": "P6", "c": "3"}, {"from": "P6", "to": "P3", "c": "3"},
      {"from": "P4", "to": "P5", "c": "2"}, {"from": "P5", "to": "P4", "c": "2"},
      {"from": "P5", "to": "P6", "c": "1"}, {"from": "P6", "to": "P5", "c": "1"}
    ]
  }
}`

// star is a three-node platform in its compact spelling; most rows
// below are spellings of requests on it.
const star = `{"nodes":[{"name":"P1","w":"1"},{"name":"P2","w":"2"},{"name":"P3","w":"3"}],"edges":[{"from":"P1","to":"P2","c":"1"},{"from":"P1","to":"P3","c":"2"}]}`

// plainSolveSpellings are accepted bodies as the in-repo producers
// spell them — json.Marshal of a SolveRequest (bench/, steadybench, the
// examples: compact, struct order), an indented WriteJSON platform
// pasted into a hand-written envelope (platgen | curl), the docs/API.md
// example, and keys in another order — followed by plain ones that are
// merely unusual.
func plainSolveSpellings(tb testing.TB) []string {
	return []string{
		string(mustSolveBody(tb, SolveRequest{Problem: "masterslave", Root: "P1"}, platform.Figure1())),
		string(mustSolveBody(tb, SolveRequest{Problem: "scatter", Root: "P0", Targets: []string{"P5", "P6"}, Model: "send-or-receive"}, platform.Figure2())),
		`{"problem":"masterslave","root":"P1","platform":` + indentedPlatform(tb, platform.Figure1()) + `}`,
		apiExample,
		`{
  "platform": {
    "edges": [ {"c": "1", "to": "P2", "from": "P1"}, {"c": "4/2", "to": "P3", "from": "P1"} ],
    "nodes": [ {"w": "1", "name": "P1"}, {"w": "2", "name": "P2"}, {"w": "3", "name": "P3"} ]
  },
  "model": "send-and-receive",
  "targets": [ "P2" , "P3" ],
  "root": "P1",
  "problem": "multicast"
}`,
		`{"problem":"masterslave","platform":` + star + `}`,
		`{"problem":"masterslave","root":"","targets":[],"model":"","platform":` + star + `}`,
		`{"problem":"masterslave","root":"Pé→1","platform":{"nodes":[{"name":"Pé→1","w":"1"},{"name":"P2","w":"1.5"}],"edges":[{"from":"Pé→1","to":"P2","c":"1"}]}}`,
		// Accepted at the door, refused by the solve: the root is resolved
		// against the platform only then.
		`{"problem":"masterslave","root":"nobody","platform":` + star + `}`,
	}
}

// producers is how many leading rows of plainSolveSpellings are an
// in-repo producer's spelling.
const producers = 5

// plainRefusals are plain bodies of requests that do not stand: the
// scanner reads the envelope of each, resolve refuses it on the scan
// path, and the strict path says why.
var plainRefusals = []string{
	`{}`,
	`{"problem":"masterslave"}`,
	`{"platform":` + star + `}`,
	`{"problem":"nosuch","platform":` + star + `}`,
	`{"problem":"scatter","root":"P1","platform":` + star + `}`,
	`{"problem":"masterslave","model":"half-duplex","platform":` + star + `}`,
	`{"problem":"broadcast","model":"send-or-receive","platform":` + star + `}`,
	`{"problem":"masterslave","platform":{}}`,
	`{"problem":"masterslave","platform":{"nodes":[{"name":"A","w":"0"}],"edges":[]}}`,
	`{"problem":"masterslave","platform":{"nodes":[{"name":"A","w":"1"}],"edges":[{"from":"A","to":"B","c":"1"}]}}`,
}

// hostileSolveSpellings are bodies the envelope scanner must leave to
// the strict decoder — some of which that accepts, some of which it
// refuses.
var hostileSolveSpellings = []string{
	// Spellings encoding/json reads differently from the bytes.
	`{"Problem":"masterslave","platform":` + star + `}`,
	`{"problem":"masterslave","PLATFORM":` + star + `}`,
	`{"problem":"nosuch","problem":"masterslave","platform":` + star + `}`,
	`{"problem":"masterslave","platform":{"nodes":[]},"platform":` + star + `}`,
	`{"problem":"masterslave","root":null,"platform":` + star + `}`,
	`{"problem":"masterslave","targets":null,"platform":` + star + `}`,
	`{"problem":"masterslave","model":null,"platform":` + star + `}`,
	`{"problem":"masterslave","platform":null}`,
	`{"problem":"masterslave","root":"\u00501","platform":` + star + `}`,
	`{"pro\u0062lem":"masterslave","platform":` + star + `}`,
	`{"problem":"multicast","root":"P1","targets":["\u00502"],"platform":` + star + `}`,
	"{\"problem\":\"masterslave\",\"root\":\"P\xff1\",\"platform\":" + star + "}",
	"{\"problem\":\"masterslave\",\"root\":\"P\x1f1\",\"platform\":" + star + "}",
	// A backslash anywhere in the platform: the bracket count would need
	// the escape grammar to find the end of the value.
	`{"problem":"masterslave","platform":{"nodes":[{"name":"\u00501","w":"1"}],"edges":[]}}`,
	`{"problem":"masterslave","platform":{"nodes":[{"name":"P\"1","w":"1"}],"edges":[]}}`,
	`{"problem":"masterslave","platform":{"nodes":[{"name":"}]\\","w":"1"}],"edges":[]}}`,
	// Not the schema.
	`{"problem":"masterslave","platform":` + star + `,"priority":"high"}`,
	`{"problem":"masterslave","root":7,"platform":` + star + `}`,
	`{"problem":"masterslave","targets":"P2","platform":` + star + `}`,
	`{"problem":"masterslave","targets":[7],"platform":` + star + `}`,
	`{"problem":"masterslave","platform":[` + star + `]}`,
	`{"problem":"masterslave","platform":"` + `nodes` + `"}`,
	`{"problem":"masterslave","platform":7}`,
	`[` + `{"problem":"masterslave","platform":` + star + `}` + `]`,
	`null`,
	``,
	// Not JSON.
	`{"problem":"masterslave","platform":` + star,
	`{"problem":"masterslave","platform":` + star + `,}`,
	`{"problem":"masterslave" "platform":` + star + `}`,
	`{"problem":"masterslave","platform":{"nodes":[{"name":"P1","w":"1"}],"edges":[}}`,
	`{"problem":"masterslave","platform":{"nodes":[{"name":"P1","w":"1"}],"edges":[]]}`,
	`{"problem":"masterslave","platform":{"nodes":[{"name":"P1","w":"1"}}]}`,
	"\xef\xbb\xbf" + `{"problem":"masterslave","platform":` + star + `}`,
	// Trailing data.
	`{"problem":"masterslave","platform":` + star + `}]`,
	`{"problem":"masterslave","platform":` + star + `} garbage`,
	`{"problem":"masterslave","platform":` + star + `}{"problem":"masterslave","platform":` + star + `}`,
	`{"problem":"masterslave","platform":` + star + "}\x00",
}

// platformOddities are plain envelopes around platforms that are not:
// the envelope scanner passes over the platform without reading it, so
// which of DecodeJSON's two readers takes it does not show in the
// server's counter — only in the answer, which must be the same.
var platformOddities = []string{
	`{"problem":"masterslave","platform":{"nodes":[{"name":"P1","w":"1","rack":7},{"name":"P2","w":"2"}],"edges":[{"from":"P1","to":"P2","c":"1"}],"comment":{"by":["x"]}}}`,
	`{"problem":"masterslave","platform":{"Nodes":[{"Name":"P1","W":"1"},{"name":"P2","w":"2"}],"EDGES":[{"from":"P1","to":"P2","C":"1"}]}}`,
	`{"problem":"masterslave","platform":{"nodes":[{"name":"P0","name":"P1","w":"1"},{"name":"P2","w":"2"}],"edges":[{"from":"P1","to":"P2","c":"1"}]}}`,
	`{"problem":"masterslave","platform":{"nodes":[{"name":"P1","w":"1"},{"name":"P2","w":"2"}],"edges":null}}`,
	`{"problem":"masterslave","platform":{"nodes":[{"name":"P1","w":1}],"edges":[]}}`,
	`{"problem":"masterslave","platform":{"nodes":null}}`,
}

// strictOnly is parseSolve as it was before the scanner.
func (s *Server) strictOnly(raw []byte) (steady.Solver, *platform.Platform, string, error) {
	var req SolveRequest
	if err := decodeStrict(raw, &req); err != nil {
		return nil, nil, "", err
	}
	return s.resolve(&req, string(req.Platform))
}

// solveScanAgainstStrict is the property that holds the scan path to
// the strict one it stands in front of: an envelope the scanner reads
// is the request decodeStrict reads, field for field; a body the scan
// path accepts, the strict path accepts as the same solver, cache key
// and platform — and the other way round once the envelope scanned;
// and a body the strict path refuses is refused by the handler in the
// strict path's words, without a memo record. It reports whether the
// scan path took the body.
func solveScanAgainstStrict(t *testing.T, s *Server, body []byte) bool {
	t.Helper()
	var scanned, decoded SolveRequest
	doc, scannedOK := scanSolveRequest(body, &scanned)
	if scannedOK && doc != string(scanned.Platform) {
		t.Fatalf("the platform span %q is not req.Platform %q\nbody: %q", doc, scanned.Platform, body)
	}
	decodeErr := decodeStrict(body, &decoded)
	if len(decoded.Targets) == 0 {
		decoded.Targets = nil // "targets":[] and no targets are the same request
	}
	if scannedOK && decodeErr == nil && !reflect.DeepEqual(scanned, decoded) {
		t.Fatalf("scanned %+v\ndecoded %+v\nbody: %q", scanned, decoded, body)
	}
	wantSolver, wantP, wantKey, wantErr := s.strictOnly(body)
	solver, p, key, took := s.scanSolve(body)
	switch {
	case took && wantErr != nil:
		t.Fatalf("the scan path accepted what the strict path refuses: %v\nbody: %q", wantErr, body)
	case took:
		if solver.Name() != wantSolver.Name() || key != wantKey || p.String() != wantP.String() {
			t.Fatalf("scan path: solver %q key %q\n%v\nstrict path: solver %q key %q\n%v\nbody: %q",
				solver.Name(), key, p, wantSolver.Name(), wantKey, wantP, body)
		}
	case scannedOK && wantErr == nil:
		t.Fatalf("the envelope scanned and the strict path accepts, but the scan path declined\nbody: %q", body)
	}
	if wantErr != nil {
		records := memoLen(s)
		rec := serveSolve(s.Handler(), body)
		var e ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("undecodable error reply %q\nbody: %q", rec.Body, body)
		}
		if rec.Code != statusFor(wantErr) || e.Error != wantErr.Error() {
			t.Fatalf("answered %d %q, the strict path says %d %q\nbody: %q", rec.Code, e.Error, statusFor(wantErr), wantErr, body)
		}
		if memoLen(s) != records {
			t.Fatalf("a refused body was remembered\nbody: %q", body)
		}
	}
	return took
}

func FuzzSolveScan(f *testing.F) {
	// Two short bodies cut at every byte — all five keys in struct order
	// and compact, and in another order and indented — and every row of
	// the tables whole. (Cutting all of them is 3 600 seeds, and ten
	// seconds of fuzzing are gone before the engine has run them once.)
	plain := plainSolveSpellings(f)
	for _, body := range []string{`{"problem":"multicast","root":"P1","targets":["P2","P3"],"model":"send-and-receive","platform":` + star + `}`, plain[producers-1]} {
		for cut := range len(body) + 1 {
			f.Add([]byte(body[:cut]))
		}
	}
	for _, body := range slices.Concat(plain, plainRefusals, hostileSolveSpellings, platformOddities) {
		f.Add([]byte(body))
	}
	// Limits a mutated platform can cross, and no LP ever runs: a body
	// is only parsed, and served only when that is refused.
	s := New(Config{MaxNodes: 6, MaxEdges: 14})
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, body []byte) { solveScanAgainstStrict(t, s, body) })
}

var elapsedField = regexp.MustCompile(`"elapsed_us": \d+`)

// TestSolveSpellings is the scan path's contract seen from outside,
// through steady_solve_decode_total alone: every in-repo producer's
// spelling is scanned, every hostile one goes to the strict decoder,
// and either way the answer — status and every byte of the body but the
// elapsed time — is that of a server with no scanner and no appended
// reply at all (the reference below: decodeStrict, resolve, the shared
// solve stage, the reflective encoder), so deleting both fast paths
// changes nothing but the counter.
func TestSolveSpellings(t *testing.T) {
	s, twin := New(Config{}), New(Config{})
	defer s.Close()
	defer twin.Close()
	h := s.Handler()
	// reference answers a body on the twin, whose cache sees the same
	// requests in the same order and so hits on the same ones.
	reference := func(body string) string {
		rec := httptest.NewRecorder()
		solver, p, key, err := twin.strictOnly([]byte(body))
		var res *steady.Result
		var hit bool
		if err == nil {
			res, hit, err = twin.solve(context.Background(), key, solver.Name(), resolved(solver, p))
		}
		if err != nil {
			writeErr(rec, statusFor(err), err)
		} else {
			writeJSON(rec, http.StatusOK, solveResponse(res, hit, 0))
		}
		return fmt.Sprintf("%d %s", rec.Code, rec.Body)
	}
	post := func(body string) string {
		rec := serveSolve(h, []byte(body))
		return fmt.Sprintf("%d %s", rec.Code, elapsedField.ReplaceAll(rec.Body.Bytes(), []byte(`"elapsed_us": 0`)))
	}
	accepted := map[string]bool{} // bodies the strict path accepts: what the memo should hold
	check := func(body, path string) {
		t.Helper()
		scan, strict := s.solveDecode.scan.Value(), s.solveDecode.strict.Value()
		got := post(body)
		scan, strict = s.solveDecode.scan.Value()-scan, s.solveDecode.strict.Value()-strict
		if path != "" && (scan+strict != 1 || (scan == 1) != (path == "scan")) {
			t.Errorf("counted scan +%d strict +%d, want the %s path\nbody: %q", scan, strict, path, body)
		}
		if want := reference(body); got != want {
			t.Errorf("answered %s\nwant     %s\nbody: %q", got, want, body)
		}
		if solveScanAgainstStrict(t, s, []byte(body)) != (path == "scan") && path != "" {
			t.Errorf("the scan path's answer does not match the %s counter\nbody: %q", path, body)
		}
		if _, _, _, err := s.strictOnly([]byte(body)); err == nil {
			accepted[body] = true
		}
	}
	for _, body := range plainSolveSpellings(t) {
		check(body, "scan")
		// Padding makes a new body of the same request: a hit.
		check(body+"\n", "scan")
		check("\r\n\t "+body+" \n", "scan")
	}
	for _, body := range slices.Concat(plainRefusals, hostileSolveSpellings) {
		check(body, "strict")
	}
	for _, body := range platformOddities {
		check(body, "")
	}
	// Only accepted bodies are remembered, whichever path accepted them.
	if got := memoLen(s); got != len(accepted) || got < 30 {
		t.Errorf("%d bodies remembered, %d accepted", got, len(accepted))
	}

	// What the parent commit answered, pinned literally for the rows a
	// client is most likely to meet.
	for body, want := range map[string]string{
		`{"Problem":"masterslave","platform":` + star + `,"root":"P1"}`:                   `200`,
		`{"problem":"masterslave","root":"\u00501","platform":` + star + ` }`:             `200`,
		`{"problem":"nosuch","problem":"masterslave","platform":` + star + ` }`:           `200`,
		`{"problem":"masterslave","root":null,"platform":` + star + ` }`:                  `200`,
		`{"problem":"masterslave","platform":` + star + `,"priority":"high"}`:             `400 {"error":"decode request: json: unknown field \"priority\""}`,
		`{"problem":"masterslave","platform":` + star + `}]`:                              `400 {"error":"decode request: unexpected data after the JSON value"}`,
		`{"problem":"masterslave"}`:                                                       `400 {"error":"missing platform"}`,
		`{"problem":"masterslave","platform":null}`:                                       `400 {"error":"platform: invalid: empty"}`,
		`{"problem":"masterslave","platform":{}}`:                                         `400 {"error":"platform: invalid: empty"}`,
		`{"problem":"masterslave","platform":7}`:                                          `400 {"error":"platform: decode: json: cannot unmarshal number into Go value of type platform.jsonPlatform"}`,
		`{"problem":"scatter","root":"P1","platform":` + star + `}`:                       `400 {"error":"steady: bad spec: scatter requires targets"}`,
		`{"problem":"masterslave","model":"half-duplex","platform":` + star + `}`:         `400 {"error":"unknown port model \"half-duplex\" (want \"send-and-receive\" or \"send-or-receive\")"}`,
		`{"problem":"masterslave","root":"nobody","platform":` + star + `}`:               `400 {"error":"steady: no such node: unknown node \"nobody\""}`,
		`{"problem":"masterslave","platform":{"nodes":[{"name":"A","w":"0"}]}}`:           `400 {"error":"platform: invalid: node A: weight 0 is not positive"}`,
		`{"problem":"masterslave","platform":{"nodes":[{"name":"A","w":"1"}],"edges":[}}`: `400 {"error":"decode request: invalid character '}' looking for beginning of value"}`,
	} {
		rec := serveSolve(h, []byte(body))
		got := fmt.Sprint(rec.Code)
		if rec.Code != http.StatusOK {
			var reply bytes.Buffer
			if err := json.Compact(&reply, rec.Body.Bytes()); err != nil {
				t.Fatalf("reply is not JSON: %v: %s", err, rec.Body)
			}
			got += " " + reply.String()
		}
		if got != want {
			t.Errorf("answered %s\nwant     %s\nbody: %q", got, want, body)
		}
	}
}

// TestSolveScanLimits: a platform over the server's size limits scans —
// it is a well-formed request — and is refused by resolve on the scan
// path, so the 413 and its text come from the strict path.
func TestSolveScanLimits(t *testing.T) {
	s := New(Config{MaxNodes: 8})
	defer s.Close()
	body := mustSolveBody(t, SolveRequest{Problem: "masterslave"}, platform.RandomConnected(rand.New(rand.NewSource(1)), 16, 16, 5, 5, 0.15))
	if solveScanAgainstStrict(t, s, body) {
		t.Fatal("the scan path took a platform over MaxNodes")
	}
	rec := serveSolve(s.Handler(), body)
	if want := "{\n  \"error\": \"platform has 16 nodes, limit 8\"\n}\n"; rec.Code != http.StatusRequestEntityTooLarge || rec.Body.String() != want {
		t.Fatalf("answered %d %s", rec.Code, rec.Body)
	}
}

// TestRetainedStateDoesNotPinBodies: what a server keeps of an accepted
// body — the memo's solver names, the cached results and their
// platforms' node names — must be copies, never substrings of the
// scanner's string of the body. All-miss traffic that fills the memo
// (512 records at this bound) and the cache with bodies carrying 16 KiB
// of legal whitespace leaves the live heap where unpadded traffic
// leaves it; one retained substring per record would be ≈ 8 MiB, and a
// client padding to MaxBodyBytes could have pinned 640 bodies of 8 MiB.
func TestRetainedStateDoesNotPinBodies(t *testing.T) {
	liveHeap := func(pad string) int64 {
		s := New(Config{CacheBound: 128})
		defer s.Close()
		h := s.Handler()
		for i := 0; i < 600; i++ {
			body := fmt.Sprintf(`{"problem":"masterslave",%s"root":"P0","platform":{"nodes":[{"name":"P0","w":"1"},{"name":"P1","w":"%d"}],%s"edges":[{"from":"P0","to":"P1","c":"1"}]}}`, pad, i+1, pad)
			if rec := serveSolve(h, []byte(body)); rec.Code != http.StatusOK {
				t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body)
			}
		}
		if s.solveDecode.scan.Value() != 600 {
			t.Fatalf("%d of 600 bodies were scanned", s.solveDecode.scan.Value())
		}
		runtime.GC()
		runtime.GC() // the first cycle's sweep frees what it found dead
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(s) // the server's tables are what is being measured
		return int64(ms.HeapAlloc)
	}
	liveHeap("") // warm the pools and lazily built tables both runs share
	plain := liveHeap("")
	padded := liveHeap(strings.Repeat(" ", 8<<10))
	t.Logf("live heap %d KiB after plain bodies, %d KiB after padded ones", plain>>10, padded>>10)
	if pinned := padded - plain; pinned > 512<<10 {
		t.Fatalf("padded bodies left %d KiB more live heap than plain ones", pinned>>10)
	}
}

func miss48Bodies(tb testing.TB, n int) [][]byte {
	rng := rand.New(rand.NewSource(48))
	bodies := make([][]byte, n)
	for i := range bodies {
		bodies[i] = mustSolveBody(tb, SolveRequest{Problem: "masterslave"}, platform.RandomConnected(rng, 48, 48, 5, 5, 0.15))
	}
	return bodies
}

// TestMiss48Allocations pins the cold path the way TestHotHitAllocations
// pins the hit: a first-seen n=48 body through Handler().ServeHTTP, LP
// included, sits at 79 allocations and ≈ 46.8 KB, the cheapest of a few
// requests; the ceilings are 89 and 48 500 bytes, for the uninstrumented
// build (see the race note below). Each of these regressions fails
// one: the LP's names built as it is declared (≈ 280 more allocations: a
// string per variable and row), an Expr per row (≈ 145 more), the
// reflective decode of the body (≈ 330) or the reflective encode of the
// reply (≈ 300), a rat int64 path that gives up too soon, a
// standardized form or an LP model built per request instead of
// recycled (≈ 70 KB and ≈ 46 KB more), a body buffer made per request
// instead of taken from bodyPool (≈ 4.9 KB) or the body copied into a
// string for the scanner (≈ 4.9 KB), and in the platform reader the
// scan's spans in slices of their own per body (≈ 20 KB), a clone per
// node name (≈ 48 allocations), a copy of the body (≈ 4.3 KB: the
// platform read from req.Platform instead of the scanner's string) or
// the adjacency as a [][]int, a list per node (≈ 2.4 KB). Validate's
// name map after build adds ≈ 1.8 KB and 3 allocations, which
// platform.TestBuildImpliesValidate makes unnecessary rather than this
// test. An exact engine built per solve (28 more) and a basis encoded
// by cloning and sorting (≈ 1.5 KB) are lp.TestColdMissAllocations's to
// catch.
func TestMiss48Allocations(t *testing.T) {
	s := New(Config{CacheBound: 128})
	defer s.Close()
	h := s.Handler()
	const runs = 50
	bodies := miss48Bodies(t, 2*runs+1) // AllocsPerRun warms up with one call
	next := 0
	serve := func() {
		if rec := serveSolve(h, bodies[next]); rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		next++
	}
	allocs := testing.AllocsPerRun(runs, serve)
	// The cheapest request, not the mean: a collection between two may
	// empty the pools, and the request after it builds its storage anew.
	bytes := ^uint64(0)
	var before, after runtime.MemStats
	for next < len(bodies) {
		runtime.ReadMemStats(&before)
		serve()
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("%.0f allocations, %d bytes", allocs, bytes)
	if got := s.solveDecode.scan.Value(); got != 2*runs+1 {
		t.Fatalf("%d of %d bodies were scanned", got, 2*runs+1)
	}
	if info, ok := debug.ReadBuildInfo(); ok && slices.Contains(info.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		return // an instrumented binary allocates more here, and its pools drop a Put in four
	}
	if allocs > 89 {
		t.Fatalf("%.0f allocations per cold n=48 /v1/solve, want <= 89", allocs)
	}
	if bytes > 48_500 {
		t.Fatalf("%d bytes allocated per cold n=48 /v1/solve, want <= 48 500", bytes)
	}
}

// TestMetricsShowTheCollector: /metrics reads the collector's counters
// at scrape time. A run of first-seen n=48 bodies moves
// steady_go_alloc_bytes_total by what runtime.MemStats says the same
// requests allocated, ≈ 100 KB each, and a collection moves
// steady_go_gc_cycles_total and never takes
// steady_go_gc_cpu_seconds_total back.
func TestMetricsShowTheCollector(t *testing.T) {
	s := New(Config{CacheBound: 128})
	defer s.Close()
	h := s.Handler()
	read := func(name string) float64 {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		samples, err := obs.ParseExposition(rec.Body)
		if err != nil {
			t.Fatal(err)
		}
		for _, sm := range samples {
			if sm.Name == name {
				return sm.Value
			}
		}
		t.Fatalf("%s is not on /metrics", name)
		return 0
	}
	const runs = 40
	bodies := miss48Bodies(t, runs+1)
	serveSolve(h, bodies[0]) // the pools and lazily built tables

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before) // flushes every P's allocation counts too
	counted := read("steady_go_alloc_bytes_total")
	for _, body := range bodies[1:] {
		if rec := serveSolve(h, body); rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	runtime.ReadMemStats(&after)
	counted = read("steady_go_alloc_bytes_total") - counted
	perMiss, want := counted/runs, float64(after.TotalAlloc-before.TotalAlloc)/runs
	t.Logf("steady_go_alloc_bytes_total: %.0f bytes per miss; runtime.MemStats: %.0f", perMiss, want)
	if perMiss < 0.8*want || perMiss > 1.25*want {
		t.Fatalf("the counter moved %.0f bytes per miss, MemStats %.0f", perMiss, want)
	}

	cycles, cpu := read("steady_go_gc_cycles_total"), read("steady_go_gc_cpu_seconds_total")
	runtime.GC()
	if got := read("steady_go_gc_cycles_total"); got < cycles+1 {
		t.Fatalf("a collection took steady_go_gc_cycles_total from %v to %v", cycles, got)
	}
	if got := read("steady_go_gc_cpu_seconds_total"); got < cpu {
		t.Fatalf("steady_go_gc_cpu_seconds_total went back from %v to %v", cpu, got)
	}
}

// BenchmarkParseSolve48 is the ruler of the decode layer of a cold miss:
// a first-seen n=48 body (4.4 KB, as json.Marshal spells it) from bytes
// to solver, platform and cache key.
func BenchmarkParseSolve48(b *testing.B) {
	s := New(Config{})
	defer s.Close()
	body := miss48Bodies(b, 1)[0]
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		if _, _, _, err := s.parseSolve(body); err != nil {
			b.Fatal(err)
		}
	}
}
