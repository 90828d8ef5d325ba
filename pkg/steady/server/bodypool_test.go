package server

// TestSolveBodyIsNotRetained and TestTelemetryBodyIsNotRetained: the
// lifetime of a pooled request body, /v1/solve's and a telemetry
// batch's. The handler reads it into a buffer from bodyPool, the
// scanner reads that buffer in place, and the buffer goes back when the
// reply is out — so nothing may read it after, and nothing may keep a
// string of it.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/pkg/steady"
	"repro/pkg/steady/control"
	"repro/pkg/steady/obs"
	"repro/pkg/steady/platform"
)

// TestSolveBodyIsNotRetained solves platform A as a miss, then serves
// many different bodies of A's exact length — scanned, strict, refused,
// and remembered bodies whose cache entry was evicted, which the memo's
// miss closure decodes again from the buffer — and then A again. Every
// reply, A's second one included, is byte for byte (but cache_hit and
// elapsed_us) what a fresh server answers, and the strings of A's memo
// record and cached result — the solver's and problem's names, the
// platform's node names — are still A's: a string kept out of a body
// that a later one overwrote would show in one or the other.
//
// The last part forces the one interleaving in which a buffer handed
// back too early — before the reply is out — is overwritten while its
// request still needs it. On one P, sync.Pool gives the next Get what
// the last Put left: a remembered body waits on another caller's
// in-flight solve of its key, a refused body is served meanwhile, and
// the solve is cancelled, so the remembered body decodes its buffer
// after that.
func TestSolveBodyIsNotRetained(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// One cache entry, so every other platform evicts the last; its memo
	// then holds four records, as many as there are valid bodies below.
	s := New(Config{CacheBound: 1, MaxInFlight: 1, QueueWait: time.Minute})
	defer s.Close()
	ref := New(Config{})
	defer ref.Close()
	h := s.Handler()

	plat := func(seed int64) *platform.Platform {
		return platform.RandomConnected(rand.New(rand.NewSource(seed)), 12, 12, 5, 5, 0.15)
	}
	pA, pB, pC := plat(1), plat(2), plat(3)
	scanned := func(p *platform.Platform) []byte {
		return mustSolveBody(t, SolveRequest{Problem: "masterslave"}, p)
	}
	strict := func(p *platform.Platform) []byte {
		return bytes.Replace(scanned(p), []byte(`"problem"`), []byte(`"Problem"`), 1)
	}
	refused := func(p *platform.Platform) []byte { // a duplicate node name
		return bytes.Replace(scanned(p), []byte(`"name":"N1"`), []byte(`"name":"N0"`), 1)
	}
	// Other bytes where A's strings were: the platform first, leading
	// whitespace.
	platformFirst := func(p *platform.Platform) []byte {
		var plat bytes.Buffer
		if err := p.WriteJSON(&plat); err != nil {
			t.Fatal(err)
		}
		return []byte(`{"platform":` + strings.TrimSpace(plat.String()) + `,"problem":"masterslave"}`)
	}
	bodies := map[string][]byte{
		"A": scanned(pA), "B": platformFirst(pB), "B strict": strict(pB), "C": scanned(pC),
		"B refused": refused(pB), "C refused": append([]byte("\n\t  "), refused(pC)...),
	}
	size := 0
	for _, body := range bodies {
		size = max(size, len(body))
	}
	for name, body := range bodies { // JSON whitespace after the value: every body is A's length
		bodies[name] = append(body, bytes.Repeat([]byte{' '}, size-len(body))...)
	}

	canon := func(rec *httptest.ResponseRecorder) string {
		return fmt.Sprintf("%d %s", rec.Code, volatileFields.ReplaceAll(rec.Body.Bytes(), nil))
	}
	want := map[string]string{}
	for name, body := range bodies {
		want[name] = canon(serveSolve(ref.Handler(), body))
	}
	for _, name := range []string{"B refused", "C refused"} {
		if !strings.HasPrefix(want[name], "400 ") || !strings.Contains(want[name], "duplicate node name") {
			t.Fatalf("%s: %s", name, want[name])
		}
	}
	post := func(name string) {
		t.Helper()
		if got := canon(serveSolve(h, bodies[name])); got != want[name] {
			t.Fatalf("%s: got\n%s\nwant\n%s", name, got, want[name])
		}
	}

	post("A")
	rec := s.memo.lookup(sha256.Sum256(bodies["A"]))
	if rec == nil {
		t.Fatal("A's body is not remembered")
	}
	resA, err, hit := s.cache.Do(context.Background(), rec.key, func() (*steady.Result, error) {
		return nil, errors.New("A is not cached")
	})
	if err != nil || !hit {
		t.Fatalf("A: hit %v, %v", hit, err)
	}

	scan, strictN := s.solveDecode.scan.Value(), s.solveDecode.strict.Value()
	solves := s.cache.Stats().Solves
	const rounds = 8
	for range rounds {
		for _, name := range []string{"B", "B strict", "B refused", "C", "C refused"} {
			post(name)
		}
	}
	// B and C are scanned and solved once a round: in the first as new
	// bodies, then as remembered ones whose entry the other evicted, in
	// the memo's miss closure. B's strict spelling is decoded once, and
	// is a cache hit after; each refused body is scanned, then refused on
	// the strict path.
	if got := s.solveDecode.scan.Value() - scan; got != 2*rounds {
		t.Fatalf("%d scanned bodies, want %d", got, 2*rounds)
	}
	if got := s.solveDecode.strict.Value() - strictN; got != 1+2*rounds {
		t.Fatalf("%d strict bodies, want %d", got, 1+2*rounds)
	}
	if got := s.cache.Stats().Solves - solves; got != 2*rounds {
		t.Fatalf("%d solves, want %d", got, 2*rounds)
	}

	// Before A is posted again, which would write its bytes back.
	if rec.solver != "masterslave" || resA.Solver != "masterslave" || resA.Problem != "masterslave" {
		t.Fatalf("A's memo record names solver %q, its cached result solver %q and problem %q",
			rec.solver, resA.Solver, resA.Problem)
	}
	for i := range pA.NumNodes() {
		if got := resA.Platform.Name(i); got != pA.Name(i) {
			t.Fatalf("node %d of A's cached platform is named %q, want %q", i, got, pA.Name(i))
		}
	}
	post("A")

	// The forced interleaving. C is cached and B is not; the test holds
	// the only solve slot, so a claim on B's key stays in flight until
	// it is cancelled.
	post("C")
	bKey := s.memo.lookup(sha256.Sum256(bodies["B"])).key
	solver, err := steady.New(steady.Spec{Problem: "masterslave"})
	if err != nil {
		t.Fatal(err)
	}
	s.sem <- struct{}{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	claimed := make(chan error, 1)
	go func() {
		_, _, err := s.solve(ctx, bKey, solver.Name(), resolved(solver, pB))
		claimed <- err
	}()
	waitFor(t, "the claim on B's key", func() bool { return s.cache.Stats().InFlight == 1 })
	waits := dedupWaits(t, h)
	replied := make(chan *httptest.ResponseRecorder, 1)
	go func() { replied <- serveSolve(h, bodies["B"]) }()
	waitFor(t, "B's body waiting on the claim", func() bool { return dedupWaits(t, h) > waits })
	post("C refused") // takes whatever buffer the last request handed back
	cancel()
	if err := <-claimed; !errors.Is(err, context.Canceled) {
		t.Fatalf("the claim ended with %v", err)
	}
	<-s.sem
	if got := canon(<-replied); got != want["B"] {
		t.Fatalf("B, decoded after a wait: got\n%s\nwant\n%s", got, want["B"])
	}
}

// TestTelemetryBodyIsNotRetained posts a batch that names every
// computing node and every edge of a deployment, then many different
// bodies of the same length — the batch reversed, other values, a name
// spelled with an escape (the strict path), an unknown node and an
// unknown endpoint (400s) — and one batch past maxBodyPresize, which
// grows a buffer the pool does not keep. Then the first batch again.
// Every reply is byte for byte the one its body got the first time,
// the 400 texts included, and the deployment's snapshot lists every
// name as the platform spells it, with the same number of
// observations on every series: a name resolved through bytes a later
// body overwrote — a key of the name index taken from a body, say —
// would refuse a valid batch, or count it on another series.
//
// Then four goroutines post the same bodies at once. A buffer handed
// back before Observe returns is taken by another request while its
// own still resolves names from it — most often while it waits for the
// deployment's lock — and shows the same way; under the race detector,
// as a race on the buffer.
func TestTelemetryBodyIsNotRetained(t *testing.T) {
	p := telemetryPlatform(10)
	h, first := telemetryHandler(t, 10) // posted once
	var batch TelemetryRequest
	if err := json.Unmarshal(first, &batch); err != nil {
		t.Fatal(err)
	}
	obs := batch.Observations
	marshal := func(obs []control.Observation) []byte {
		body, err := json.Marshal(TelemetryRequest{Observations: obs})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	node, edge := obs[0].Node, obs[len(obs)-1]
	pair := fmt.Sprintf(`"from":%q,"to":%q`, edge.From, edge.To)
	reversed := slices.Clone(obs)
	slices.Reverse(reversed)
	escaped := fmt.Sprintf(`"node":"\u%04x%s"`, node[0], node[1:])
	bodies := map[string][]byte{
		"first":    first,
		"reversed": marshal(reversed),
		"values":   driftBatch(t, p, 13),
		"strict":   bytes.Replace(first, []byte(`"node":"`+node+`"`), []byte(escaped), 1),
		"unknown node": bytes.Replace(first, []byte(`"node":"`+node+`"`),
			[]byte(`"node":"X`+node[1:]+`"`), 1),
		"unknown endpoint": bytes.Replace(first, []byte(pair),
			[]byte(strings.Replace(pair, `"to":"`, `"to":"Y`, 1)), 1),
	}
	size := 0
	for _, body := range bodies {
		size = max(size, len(body))
	}
	for name, body := range bodies { // JSON whitespace after the value: every body is the first's length
		bodies[name] = append(body, bytes.Repeat([]byte{' '}, size-len(body))...)
	}
	var big []control.Observation
	for len(big)*len(first)/len(obs) <= maxBodyPresize {
		big = append(big, obs...)
	}
	bodies["big"] = marshal(big)
	// How many times each body observes every series it names.
	times := map[string]int64{"first": 1, "reversed": 1, "values": 1, "strict": 1, "big": int64(len(big) / len(obs))}
	names := []string{"first", "reversed", "values", "strict", "unknown node", "unknown endpoint", "big"}

	// post serves one body and reports a reply that differs from the
	// one its body got the first time, and how many observations each
	// series gained. The first replies are recorded on the test's
	// goroutine, before any other posts.
	want := map[string]string{}
	post := func(name string) (string, int64) {
		rec := serveTelemetry(h, bodies[name])
		got := fmt.Sprintf("%d %s", rec.Code, rec.Body)
		if w, ok := want[name]; !ok {
			want[name] = got
		} else if got != w {
			return fmt.Sprintf("%s: got %s, want %s", name, got, w), 0
		}
		if rec.Code == http.StatusOK {
			return "", times[name]
		}
		return "", 0
	}
	observed := int64(1) // telemetryHandler's post
	check := func(msg string, n int64) {
		t.Helper()
		if msg != "" {
			t.Fatal(msg)
		}
		observed += n
	}

	// One P: a buffer handed back is the next request's.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, name := range names {
		check(post(name))
	}
	for name, text := range map[string]string{
		"first":            fmt.Sprintf("200 {\n  \"accepted\": %d\n}\n", len(obs)),
		"strict":           fmt.Sprintf("200 {\n  \"accepted\": %d\n}\n", len(obs)),
		"unknown node":     fmt.Sprintf(`observation 0: control: bad observation: unknown node \"X%s\"`, node[1:]),
		"unknown endpoint": fmt.Sprintf(`observation %d: control: bad observation: unknown edge %s\u003eY%s`, len(obs)-1, edge.From, edge.To),
	} {
		if !strings.Contains(want[name], text) {
			t.Fatalf("%s: %s, want %s", name, want[name], text)
		}
	}
	for round := range 8 {
		for i := range names {
			check(post(names[(round+i)%len(names)]))
		}
	}
	check(post("first"))

	runtime.GOMAXPROCS(4)
	var wg sync.WaitGroup
	var concurrent atomic.Int64
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				msg, n := post(names[(g+i)%len(names)])
				if msg != "" {
					t.Error(msg)
					return
				}
				concurrent.Add(n)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	observed += concurrent.Load()
	check(post("first"))

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/deployments/bench", nil))
	var snap control.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot: %v: %s", err, rec.Body)
	}
	if len(snap.Nodes) != p.NumNodes() || len(snap.Links) != p.NumEdges() {
		t.Fatalf("snapshot lists %d nodes and %d links, want %d and %d", len(snap.Nodes), len(snap.Links), p.NumNodes(), p.NumEdges())
	}
	for i, n := range snap.Nodes {
		wantN := observed
		if p.Weight(i).Inf {
			wantN = 0 // forwarder-only: never named
		}
		if n.Name != p.Name(i) || n.Observations != wantN {
			t.Errorf("node %d: %q with %d observations, want %q with %d", i, n.Name, n.Observations, p.Name(i), wantN)
		}
	}
	for e, l := range snap.Links {
		ed := p.Edge(e)
		if l.From != p.Name(ed.From) || l.To != p.Name(ed.To) || l.Observations != observed {
			t.Errorf("link %d: %s>%s with %d observations, want %s>%s with %d",
				e, l.From, l.To, l.Observations, p.Name(ed.From), p.Name(ed.To), observed)
		}
	}
}

// waitFor polls cond until it holds, yielding the one P meanwhile.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// dedupWaits scrapes how many cache lookups have waited on another
// caller's in-flight solve.
func dedupWaits(t *testing.T, h http.Handler) float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	samples, err := obs.ParseExposition(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, sm := range samples {
		if sm.Name == "steady_cache_dedup_waits_total" {
			total += sm.Value
		}
	}
	return total
}
