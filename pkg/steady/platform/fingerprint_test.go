package platform_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
	"repro/pkg/steady/server"
)

// TestColdSolveEncodesOnce: a first-seen /v1/solve body — bench/'s
// cold_solve request, the n=48 master-slave LP — writes the platform's
// canonical form once, though its cache key and its Result both carry
// the fingerprint, and the reply's is the platform's.
func TestColdSolveEncodesOnce(t *testing.T) {
	s := server.New(server.Config{})
	defer s.Close()
	p := platform.RandomConnected(rand.New(rand.NewSource(48)), 48, 48, 5, 5, 0.15)
	var plat bytes.Buffer
	if err := p.WriteJSON(&plat); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(server.SolveRequest{Problem: "masterslave", Platform: plat.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	before := platform.Encodings()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if n := platform.Encodings() - before; n != 1 {
		t.Fatalf("a cold solve wrote the canonical form %d times, want 1", n)
	}
	var reply struct{ Fingerprint string }
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Fingerprint != p.Fingerprint() {
		t.Fatalf("reply fingerprint %s, platform's %s", reply.Fingerprint, p.Fingerprint())
	}
}

// TestFingerprintFollowsEdits: the kept hash is the hash of what the
// platform is now — an added node or edge changes it, and it equals the
// hash of a platform built that way from the start.
func TestFingerprintFollowsEdits(t *testing.T) {
	build := func(nodes, edges int) *platform.Platform {
		p := platform.New()
		for i := range nodes {
			p.AddNode(string(rune('a'+i)), platform.W(rat.FromInt(int64(i+1))))
		}
		for e := range edges {
			p.AddEdge(e, e+1, rat.FromInt(2))
		}
		return p
	}
	p := build(2, 0)
	seen := map[string]bool{p.Fingerprint(): true}
	p.AddNode("c", platform.W(rat.FromInt(3)))
	if fp := p.Fingerprint(); seen[fp] || fp != build(3, 0).Fingerprint() {
		t.Fatal("AddNode left the kept hash behind")
	}
	seen[p.Fingerprint()] = true
	p.AddEdge(0, 1, rat.FromInt(2))
	if fp := p.Fingerprint(); seen[fp] || fp != build(3, 1).Fingerprint() {
		t.Fatal("AddEdge left the kept hash behind")
	}
}

// TestFingerprintAllocations: the canonical form goes into one pooled
// buffer and is hashed once, so what is left is the returned string
// (and the pool's own bookkeeping after a GC); a kept hash costs
// nothing.
func TestFingerprintAllocations(t *testing.T) {
	p := platform.RandomConnected(rand.New(rand.NewSource(48)), 48, 48, 5, 5, 0.15)
	p.CanonicalHash() // size the pooled buffer
	if allocs := testing.AllocsPerRun(100, func() { p.CanonicalHash() }); allocs > 4 {
		t.Fatalf("%.0f allocations per canonical hash of an n=48 platform, want <= 4", allocs)
	}
	p.Fingerprint()
	if allocs := testing.AllocsPerRun(100, func() { p.Fingerprint() }); allocs != 0 {
		t.Fatalf("%.0f allocations per kept Fingerprint, want 0", allocs)
	}
}

func BenchmarkFingerprint48(b *testing.B) {
	p := platform.RandomConnected(rand.New(rand.NewSource(48)), 48, 48, 5, 5, 0.15)
	b.ReportAllocs()
	for b.Loop() {
		p.CanonicalHash()
	}
}
