package server

// White-box tests of the /v1/solve hot path: the body-digest memo in
// front of decode → fingerprint, and the reply writer that renders a
// cached result once.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/pkg/steady"
	"repro/pkg/steady/batch"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

func serveSolve(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
	return rec
}

func mustSolveBody(t testing.TB, req SolveRequest, p *platform.Platform) []byte {
	t.Helper()
	var plat bytes.Buffer
	if err := p.WriteJSON(&plat); err != nil {
		t.Fatal(err)
	}
	req.Platform = plat.Bytes()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func random48() *platform.Platform {
	return platform.RandomConnected(rand.New(rand.NewSource(48)), 48, 48, 5, 5, 0.15)
}

func memoLen(s *Server) int {
	s.memo.mu.RLock()
	defer s.memo.mu.RUnlock()
	return len(s.memo.m)
}

// starPlatform is a two-node platform whose master-slave throughput
// (1 + 1/w) tells replies of different w apart.
func starPlatform(w int64) *platform.Platform {
	p := platform.New()
	p.AddNode("P0", platform.W(rat.One()))
	p.AddNode("P1", platform.W(rat.FromInt(w)))
	p.AddEdge(0, 1, rat.One())
	return p
}

// TestSolveReplyBytes is the wire contract of the reply writer: for
// every registered problem under both port models, on the paper's two
// figures and an n=48 platform, a miss and two hits (the first renders
// the record's reply, the second copies it) each answer exactly what
// the indented encoder makes of solveResponse(res, hit, elapsed) —
// omitted rate/trees/nodes included.
func TestSolveReplyBytes(t *testing.T) {
	platforms := []struct {
		name    string
		p       *platform.Platform
		root    string
		targets []string
	}{
		{"figure1", platform.Figure1(), "P1", []string{"P4", "P6"}},
		{"figure2", platform.Figure2(), "P0", []string{"P5", "P6"}},
		{"random48", random48(), "N0", []string{"N7", "N31"}},
	}
	s := New(Config{})
	defer s.Close()
	h := s.Handler()
	solved := 0
	for _, pl := range platforms {
		for _, problem := range steady.Problems() {
			if problem == "multicast-trees" && pl.p.NumNodes() > 16 {
				// Arborescence enumeration is exponential in n. broadcast
				// and reduce were skipped here too while their n=48 LPs
				// took seconds each; the triangular install brought them
				// back (≈ 0.25 s each).
				continue
			}
			for _, model := range []steady.PortModel{steady.SendAndReceive, steady.SendOrReceive} {
				name := fmt.Sprintf("%s/%s/%s", pl.name, problem, model)
				spec := steady.Spec{Problem: problem, Root: pl.root, Targets: pl.targets, Model: model}
				body := mustSolveBody(t, SolveRequest{Problem: problem, Root: pl.root, Targets: pl.targets, Model: model.String()}, pl.p)
				solver, err := steady.New(spec)
				if err != nil {
					// Not a combination the registry offers: refused, and
					// refused again, without a record.
					before := memoLen(s)
					for i := 0; i < 2; i++ {
						if rec := serveSolve(h, body); rec.Code != http.StatusBadRequest {
							t.Fatalf("%s: status %d, want 400", name, rec.Code)
						}
					}
					if memoLen(s) != before {
						t.Fatalf("%s: a refused body was remembered", name)
					}
					continue
				}
				key := batch.Key(steady.Fingerprint(pl.p), solver.Name())
				if problem == "reduce" && pl.name == "figure2" {
					// Nothing reaches P0 in Figure 2: the solve itself
					// fails, and the cached error answers a remembered
					// body exactly as it answered the first.
					first := serveSolve(h, body)
					again := serveSolve(h, body)
					if first.Code != http.StatusBadRequest || again.Code != first.Code || !bytes.Equal(first.Body.Bytes(), again.Body.Bytes()) {
						t.Fatalf("%s: %d %s, then %d %s", name, first.Code, first.Body, again.Code, again.Body)
					}
					continue
				}
				for i, wantHit := range []bool{false, true, true} {
					rec := serveSolve(h, body)
					if rec.Code != http.StatusOK {
						t.Fatalf("%s request %d: status %d: %s", name, i, rec.Code, rec.Body)
					}
					var tail struct {
						CacheHit bool  `json:"cache_hit"`
						Elapsed  int64 `json:"elapsed_us"`
					}
					if err := json.Unmarshal(rec.Body.Bytes(), &tail); err != nil {
						t.Fatalf("%s request %d: %v", name, i, err)
					}
					if tail.CacheHit != wantHit {
						t.Fatalf("%s request %d: cache_hit %v, want %v", name, i, tail.CacheHit, wantHit)
					}
					res, err, _ := s.cache.Do(context.Background(), key, func() (*steady.Result, error) {
						return nil, fmt.Errorf("key %q is not resident", key)
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					var want bytes.Buffer
					enc := json.NewEncoder(&want)
					enc.SetIndent("", "  ")
					if err := enc.Encode(solveResponse(res, tail.CacheHit, tail.Elapsed)); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
						t.Fatalf("%s request %d: reply differs from the encoder's\n got: %s\nwant: %s", name, i, rec.Body, want.Bytes())
					}
					if got := rec.Header().Get("Content-Length"); got != fmt.Sprint(want.Len()) {
						t.Fatalf("%s request %d: Content-Length %q for %d bytes", name, i, got, want.Len())
					}
				}
				solved++
			}
		}
	}
	// masterslave and scatter under both models, the five multicast
	// family problems under one, minus multicast-trees at n=48 and
	// reduce on Figure 2.
	if want := 3*9 - 1 - 1; solved != want {
		t.Fatalf("%d problem/model/platform combinations solved, want %d", solved, want)
	}
}

// TestSolveMemoNeverStale: with room for one cached result, two
// alternated bodies evict each other while both stay remembered, so
// every request takes the remembered-body, evicted-entry path — and
// answers a fresh solve of its own platform. A canceled solve (whose
// key the cache drops) leaves the body solvable too.
func TestSolveMemoNeverStale(t *testing.T) {
	s := New(Config{CacheBound: 1})
	defer s.Close()
	h := s.Handler()
	bodies := [][]byte{
		mustSolveBody(t, SolveRequest{Problem: "masterslave"}, starPlatform(2)),
		mustSolveBody(t, SolveRequest{Problem: "masterslave"}, starPlatform(3)),
	}
	throughputs := []string{"3/2", "4/3"}
	check := func(round, i int) {
		t.Helper()
		rec := serveSolve(h, bodies[i])
		var out SolveResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("round %d body %d: status %d (%v): %s", round, i, rec.Code, err, rec.Body)
		}
		if out.CacheHit || out.Throughput != throughputs[i] {
			t.Fatalf("round %d body %d: cache_hit %v throughput %s, want a fresh solve answering %s",
				round, i, out.CacheHit, out.Throughput, throughputs[i])
		}
	}
	for round := 0; round < 4; round++ {
		check(round, 0)
		check(round, 1)
	}
	if n := memoLen(s); n != 2 {
		t.Fatalf("%d records for 2 bodies", n)
	}
	if solves := s.cache.Stats().Solves; solves != 8 {
		t.Fatalf("%d solves for 8 alternated requests", solves)
	}

	// Body 0 is remembered but not resident. Its solve is canceled...
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(bodies[0])).WithContext(ctx))
	if rec.Code != 499 {
		t.Fatalf("canceled solve: status %d, want 499: %s", rec.Code, rec.Body)
	}
	// ...which says nothing about the body: it solves on the next try,
	// and the hit after that renders the new result.
	check(4, 0)
	var out SolveResponse
	rec = serveSolve(h, bodies[0])
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || !out.CacheHit || out.Throughput != throughputs[0] {
		t.Fatalf("hit after the re-solve: cache_hit %v throughput %s (%v)", out.CacheHit, out.Throughput, err)
	}
}

// TestSolveMemoSpellings: two byte-different bodies of one request
// (re-indented, fields reordered) are two records and one cache entry.
func TestSolveMemoSpellings(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	h := s.Handler()
	compact := `{"problem":"masterslave","root":"P0","platform":{"nodes":[{"name":"P0","w":"1"},{"name":"P1","w":"2"}],"edges":[{"from":"P0","to":"P1","c":"1"}]}}`
	respelled := `{
  "platform": {
    "edges": [ {"c": "1", "to": "P1", "from": "P0"} ],
    "nodes": [ {"w": "1", "name": "P0"}, {"w": "4/2", "name": "P1"} ]
  },
  "root": "P0",
  "problem": "masterslave"
}`
	for i, body := range []string{compact, respelled} {
		rec := serveSolve(h, []byte(body))
		var out SolveResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("body %d: status %d (%v): %s", i, rec.Code, err, rec.Body)
		}
		if out.CacheHit != (i == 1) || out.Throughput != "3/2" {
			t.Fatalf("body %d: cache_hit %v throughput %s", i, out.CacheHit, out.Throughput)
		}
	}
	if n := memoLen(s); n != 2 {
		t.Fatalf("%d records for 2 spellings", n)
	}
	var stats StatsResponse
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cache.Solves != 1 || stats.Cache.Hits != 1 || stats.Cache.Entries != 1 {
		t.Fatalf("cache stats %+v, want 1 solve, 1 hit, 1 entry", stats.Cache)
	}
}

// TestSolveMemoPerServer: a record stands for "this server accepted
// these bytes", so another server with tighter limits refuses them.
func TestSolveMemoPerServer(t *testing.T) {
	body := mustSolveBody(t, SolveRequest{Problem: "masterslave"}, platform.RandomConnected(rand.New(rand.NewSource(1)), 16, 16, 5, 5, 0.15))
	wide, narrow := New(Config{MaxNodes: 64}), New(Config{MaxNodes: 8})
	defer wide.Close()
	defer narrow.Close()
	for i := 0; i < 2; i++ {
		if rec := serveSolve(wide.Handler(), body); rec.Code != http.StatusOK {
			t.Fatalf("MaxNodes 64, request %d: status %d", i, rec.Code)
		}
		if rec := serveSolve(narrow.Handler(), body); rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("MaxNodes 8, request %d: status %d, want 413", i, rec.Code)
		}
	}
	if memoLen(wide) != 1 || memoLen(narrow) != 0 {
		t.Fatalf("records: %d on the accepting server, %d on the refusing one", memoLen(wide), memoLen(narrow))
	}
}

// TestSolveMemoStatsParity: what /v1/stats and the registry count for
// a repeated body is what they count for the same requests on the
// full path (a server whose table forgets every body at once).
func TestSolveMemoStatsParity(t *testing.T) {
	bodies := [][]byte{
		mustSolveBody(t, SolveRequest{Problem: "masterslave", Root: "P1"}, platform.Figure1()),
		mustSolveBody(t, SolveRequest{Problem: "broadcast", Root: "P0"}, platform.Figure2()),
		mustSolveBody(t, SolveRequest{Problem: "masterslave", Root: "nobody"}, platform.Figure1()), // 400 at solve time
	}
	run := func(forget bool) (StatsResponse, int64) {
		s := New(Config{})
		defer s.Close()
		if forget {
			s.memo.limit = 0
		}
		h := s.Handler()
		for round := 0; round < 3; round++ {
			for _, body := range bodies {
				serveSolve(h, body)
			}
		}
		var stats StatsResponse
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
		if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
			t.Fatal(err)
		}
		return stats, s.memo.hits.Value()
	}
	memo, memoHits := run(false)
	full, fullHits := run(true)
	if memoHits != 6 || fullHits != 0 {
		t.Fatalf("memo hits: %d with the table, %d without; want 6 and 0", memoHits, fullHits)
	}
	if memo.Cache.Solves != full.Cache.Solves || memo.Cache.Hits != full.Cache.Hits || memo.Cache.Entries != full.Cache.Entries {
		t.Fatalf("cache stats differ: memo %+v, full path %+v", memo.Cache, full.Cache)
	}
	if len(memo.Solvers) != 3 || len(full.Solvers) != 3 {
		t.Fatalf("solvers: %d and %d, want 3", len(memo.Solvers), len(full.Solvers))
	}
	for name, m := range memo.Solvers {
		f := full.Solvers[name]
		if m.Count != 3 || m.Count != f.Count || m.Errors != f.Errors || m.CacheHits != f.CacheHits {
			t.Fatalf("%s: memo %+v, full path %+v", name, m, f)
		}
	}
}

// TestSolveMemoConcurrent hammers a four-record table with 16 bodies,
// valid and invalid, from 32 goroutines, so lookups, inserts, resets
// and reply renders interleave (run under -race). Every reply must be
// its own body's answer.
func TestSolveMemoConcurrent(t *testing.T) {
	s := New(Config{CacheBound: 1})
	defer s.Close()
	h := s.Handler()
	const nBodies = 16
	bodies := make([][]byte, nBodies)
	want := make([]string, nBodies) // throughput, "" for a body that must be refused
	for i := range bodies {
		if i%4 == 3 {
			bodies[i] = []byte(fmt.Sprintf(`{"problem":"masterslave","platform":{"nodes":[{"name":"A","w":"-%d"}],"edges":[]}}`, i))
			continue
		}
		w := int64(i + 2)
		bodies[i] = mustSolveBody(t, SolveRequest{Problem: "masterslave"}, starPlatform(w))
		want[i] = rat.New(w+1, w).String()
	}
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 64; n++ {
				i := (g + 7*n) % nBodies
				rec := serveSolve(h, bodies[i])
				if want[i] == "" {
					if rec.Code != http.StatusBadRequest {
						t.Errorf("body %d: status %d, want 400", i, rec.Code)
					}
					continue
				}
				var out SolveResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || rec.Code != http.StatusOK || out.Throughput != want[i] {
					t.Errorf("body %d: status %d throughput %q, want %q (%v)", i, rec.Code, out.Throughput, want[i], err)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := memoLen(s); n > s.memo.limit {
		t.Fatalf("table holds %d records, limit %d", n, s.memo.limit)
	}
	if s.memo.hits.Value() == 0 || s.memo.misses.Value() <= nBodies {
		t.Fatalf("memo hits %d, misses %d: the table was not both used and reset", s.memo.hits.Value(), s.memo.misses.Value())
	}
}

// hotHandler is a server with body resident and remembered, as every
// request of bench/'s hot_hit workload finds it.
func hotHandler(tb testing.TB, body []byte) (http.Handler, func()) {
	s, done := hotServer(tb, body)
	return s.Handler(), done
}

// hotServer is a server that has answered body twice: the miss, then
// the hit that renders the reply.
func hotServer(tb testing.TB, body []byte) (*Server, func()) {
	s := New(Config{})
	h := s.Handler()
	for i := 0; i < 2; i++ {
		if rec := serveSolve(h, body); rec.Code != http.StatusOK {
			tb.Fatalf("warm-up: status %d: %s", rec.Code, rec.Body)
		}
	}
	return s, s.Close
}

func hot16Body(tb testing.TB) []byte {
	return mustSolveBody(tb, SolveRequest{Problem: "masterslave"},
		platform.RandomConnected(rand.New(rand.NewSource(16)), 16, 16, 5, 5, 0.15))
}

// TestHotHitAllocations pins the hot path the way
// lp.TestColdMissAllocations pins the miss: a repeated body through
// Handler().ServeHTTP, request and recorder construction included
// (≈ 25 of the allocations), sits near 40. JSON decode of the body
// alone is > 400 and an encode of the reply > 50, so either creeping
// back onto the hit path fails this.
func TestHotHitAllocations(t *testing.T) {
	body := hot16Body(t)
	h, done := hotHandler(t, body)
	defer done()
	allocs := testing.AllocsPerRun(200, func() {
		if rec := serveSolve(h, body); rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
	})
	t.Logf("%.0f allocations", allocs)
	if allocs > 60 {
		t.Fatalf("%.0f allocations per hot /v1/solve, want <= 60", allocs)
	}
}

// The two in-package rulers of /v1/solve, with no client or socket: a
// repeated n=16 body (bench/'s hot_hit operation) and first-seen n=48
// bodies (its cold_solve operation, LP included).

func BenchmarkServerHandleHot(b *testing.B) {
	body := hot16Body(b)
	h, done := hotHandler(b, body)
	defer done()
	b.ReportAllocs()
	for b.Loop() {
		serveSolve(h, body)
	}
}

// BenchmarkServerHandleMiss48 makes its bodies 64 at a time with the
// timer stopped, each platform drawn once from one stream: made all up
// front, b.N bodies held ≈ 13 MB live at 3 000 iterations, and the
// collector ran far lazier than in a daemon whose cache holds 128
// entries.
func BenchmarkServerHandleMiss48(b *testing.B) {
	s := New(Config{CacheBound: 128})
	defer s.Close()
	h := s.Handler()
	rng := rand.New(rand.NewSource(48))
	bodies := make([][]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(bodies) == 0 {
			b.StopTimer()
			for j := range bodies {
				bodies[j] = mustSolveBody(b, SolveRequest{Problem: "masterslave"}, platform.RandomConnected(rng, 48, 48, 5, 5, 0.15))
			}
			b.StartTimer()
		}
		if rec := serveSolve(h, bodies[i%len(bodies)]); rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}
