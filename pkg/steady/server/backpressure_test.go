package server

// White-box regression tests for the solve-gate backpressure fix: a
// saturated server must answer 503 with Retry-After, not hang until
// the client's context dies, and cached answers must keep flowing
// because cache hits never take a solve slot.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
	"repro/pkg/steady/sim"
)

func solveBody(t *testing.T) *strings.Reader {
	t.Helper()
	var plat bytes.Buffer
	if err := platform.Figure1().WriteJSON(&plat); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{
		"problem": "masterslave", "root": "P1", "platform": json.RawMessage(plat.Bytes()),
	})
	if err != nil {
		t.Fatal(err)
	}
	return strings.NewReader(string(body))
}

// TestSaturatedSolveReturns503 fills every solve slot by hand and
// checks the next cold solve is refused with 503 + Retry-After within
// the queue-wait budget (the regression: it used to block until the
// client gave up, burning a connection per queued request).
func TestSaturatedSolveReturns503(t *testing.T) {
	s := New(Config{MaxInFlight: 2, QueueWait: 50 * time.Millisecond})
	defer s.Close()
	for i := 0; i < cap(s.sem); i++ {
		s.sem <- struct{}{} // occupy every slot: a wedged solver
	}
	defer func() {
		for i := 0; i < cap(s.sem); i++ {
			<-s.sem
		}
	}()

	ts := ServeLoop(t, s)

	start := time.Now()
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", solveBody(t))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated solve: status %d body %s, want 503", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("503 took %v, the gate is not bounded by QueueWait", elapsed)
	}
}

// TestSaturatedCacheHitStillServes: with all slots taken, a key that
// is already cached answers 200 — hits bypass the gate entirely.
func TestSaturatedCacheHitStillServes(t *testing.T) {
	s := New(Config{MaxInFlight: 2, QueueWait: 50 * time.Millisecond})
	defer s.Close()
	ts := ServeLoop(t, s)

	// Warm the cache while the gate is open.
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", solveBody(t))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warming solve: status %d", resp.StatusCode)
	}

	for i := 0; i < cap(s.sem); i++ {
		s.sem <- struct{}{}
	}
	defer func() {
		for i := 0; i < cap(s.sem); i++ {
			<-s.sem
		}
	}()

	resp, err = http.Post(ts.URL+"/v1/solve", "application/json", solveBody(t))
	if err != nil {
		t.Fatal(err)
	}
	var out SolveResponse
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !out.CacheHit {
		t.Fatalf("saturated cache hit: status %d cache_hit %v, want a 200 hit",
			resp.StatusCode, out.CacheHit)
	}
}

// TestSimSweepCellSimulationHoldsASlot: a /v1/simsweep cell's
// simulation takes a MaxInFlight slot, as /v1/simulate's does, so it
// waits while every slot is held even when its solve is a cache hit.
// Its deadline is the only bound on its time, so a simulation running
// beside the gate could hold a sweep worker for a whole deadline per
// cell with no slot to show for it.
func TestSimSweepCellSimulationHoldsASlot(t *testing.T) {
	s := New(Config{MaxInFlight: 1, QueueWait: 10 * time.Second})
	defer s.Close()
	ts := ServeLoop(t, s)

	// Warm the cache while the gate is open: the cell's solve needs no slot.
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", solveBody(t))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warming solve: status %d", resp.StatusCode)
	}

	s.sem <- struct{}{} // the one slot, held by a wedged solve
	held := true
	defer func() {
		if held {
			<-s.sem
		}
	}()
	var plat bytes.Buffer
	if err := platform.Figure1().WriteJSON(&plat); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(SimSweepRequest{SweepRequest: SweepRequest{
		Problem: "masterslave", Root: "P1", Platforms: []json.RawMessage{plat.Bytes()},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// The stream's header goes out with its first record, so the post
	// itself waits on the cell.
	records := make(chan sim.CellRecord, 1)
	go func() {
		var rec sim.CellRecord
		resp, err := http.Post(ts.URL+"/v1/simsweep", "application/json", bytes.NewReader(body))
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&rec)
			resp.Body.Close()
		}
		if err != nil {
			rec.Err = err.Error()
		}
		records <- rec
	}()

	select {
	case rec := <-records:
		t.Fatalf("a cell simulated while every slot was held: %+v", rec)
	case <-time.After(200 * time.Millisecond):
	}
	if got := s.simMetrics.snapshot(); got.SweepCells != 0 {
		t.Fatalf("sim stats %+v while every slot was held, want no cell", got)
	}
	<-s.sem
	held = false
	select {
	case rec := <-records:
		if rec.Err != "" || rec.Report == nil || rec.Report.Kind != "periodic" || !rec.CacheHit {
			t.Fatalf("cell after the slot freed: %+v, want a periodic report from a cache hit", rec)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the cell did not run within 5s of its slot freeing")
	}
}

// TestSolveMemoBounded: the body-digest table is sized from the cache
// bound, hands back the record it was given for a digest, and at its
// limit resets instead of growing — after which a forgotten body is
// simply recorded again.
func TestSolveMemoBounded(t *testing.T) {
	digest := func(i int) [sha256.Size]byte { return sha256.Sum256([]byte(strconv.Itoa(i))) }
	for _, tc := range []struct{ cacheBound, limit int }{
		{0, maxMemoRecords}, // unbounded cache: the ceiling
		{128, 128 * memoRecordsPerEntry},
		{maxMemoRecords, maxMemoRecords},
	} {
		sm := newSolveMemo(tc.cacheBound, nil)
		if sm.limit != tc.limit {
			t.Fatalf("cache bound %d: table limit %d, want %d", tc.cacheBound, sm.limit, tc.limit)
		}
		if sm.lookup(digest(-1)) != nil {
			t.Fatal("an empty table knew a digest")
		}
		a := sm.remember(digest(-1), "fp1|solverA", "solverA")
		if b := sm.remember(digest(-1), "other", "other"); b != a {
			t.Fatal("a second remember of one digest replaced the record")
		}
		if sm.lookup(digest(-1)) != a || a.key != "fp1|solverA" || a.solver != "solverA" {
			t.Fatalf("lookup did not return the remembered record: %+v", a)
		}
		// Blow past the bound: the table resets instead of growing forever.
		for i := 0; i < tc.limit+10; i++ {
			sm.remember(digest(i), "k", "s")
			if len(sm.m) > tc.limit {
				t.Fatalf("table grew to %d records, bound is %d", len(sm.m), tc.limit)
			}
		}
		if sm.lookup(digest(-1)) != nil {
			t.Fatal("the reset kept a record")
		}
		if c := sm.remember(digest(-1), "fp1|solverA", "solverA"); c == a || c.key != a.key {
			t.Fatalf("post-reset remember: %+v", c)
		}
	}
}

// TestAllMissTrafficHeapFlat: every request a different platform, so
// every request misses a 128-entry cache and evicts. What the server
// keeps per request must be bounded by that cache: live heap after
// 6 000 requests is what it was after 2 000. (The intern table once
// kept every key until 65 536 of them, ≈ 0.25 KB a request.)
func TestAllMissTrafficHeapFlat(t *testing.T) {
	h := New(Config{CacheBound: 128}).Handler()
	sent := 0
	liveHeapAt := func(requests int) int64 {
		for ; sent < requests; sent++ {
			p := platform.New()
			p.AddNode("P0", platform.W(rat.One()))
			p.AddNode("P1", platform.W(rat.FromInt(int64(sent+1))))
			p.AddEdge(0, 1, rat.One())
			var plat bytes.Buffer
			if err := p.WriteJSON(&plat); err != nil {
				t.Fatal(err)
			}
			body, err := json.Marshal(SolveRequest{Problem: "masterslave", Platform: plat.Bytes()})
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("request %d: status %d: %s", sent, rec.Code, rec.Body)
			}
		}
		runtime.GC()
		runtime.GC() // the first cycle's sweep frees what it found dead
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(h) // the server's tables are what is being measured
		return int64(ms.HeapAlloc)
	}
	at2k := liveHeapAt(2000)
	at6k := liveHeapAt(6000)
	t.Logf("live heap %d KiB after 2000 requests, %d KiB after 6000", at2k>>10, at6k>>10)
	// 4 000 retained keys would be ≈ 1 MiB; a full-versus-empty intern
	// table at this bound is ≈ 128 KiB.
	if growth := at6k - at2k; growth > 384<<10 {
		t.Fatalf("live heap grew %d KiB over 4000 all-miss requests", growth>>10)
	}
}

// TestHitTrafficHeapFlat is the sibling for traffic that does hit:
// more distinct bodies than the memo's limit (512 records at this
// bound), each sent twice, so every body's record gets a rendered
// reply. Those go when the table resets, so the live heap after 6 000
// bodies is again what it was after 2 000.
func TestHitTrafficHeapFlat(t *testing.T) {
	h := New(Config{CacheBound: 128}).Handler()
	sent := 0
	liveHeapAt := func(bodies int) int64 {
		for ; sent < bodies; sent++ {
			body := mustSolveBody(t, SolveRequest{Problem: "masterslave"}, starPlatform(int64(sent+1)))
			for _, wantHit := range []bool{false, true} {
				rec := serveSolve(h, body)
				var out SolveResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || rec.Code != http.StatusOK || out.CacheHit != wantHit {
					t.Fatalf("body %d: status %d, cache_hit %v, want a 200 with cache_hit %v (%v)", sent, rec.Code, out.CacheHit, wantHit, err)
				}
			}
		}
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(h)
		return int64(ms.HeapAlloc)
	}
	at2k := liveHeapAt(2000)
	at6k := liveHeapAt(6000)
	t.Logf("live heap %d KiB after 2000 bodies, %d KiB after 6000", at2k>>10, at6k>>10)
	// A full table here is 512 records of ≈ 0.5 KB reply, ≈ 0.4 MiB
	// with the map; 4 000 retained ones would be several MiB.
	if growth := at6k - at2k; growth > 1<<20 {
		t.Fatalf("live heap grew %d KiB over 4000 twice-sent bodies", growth>>10)
	}
}
