package steady_test

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/pkg/steady"
	"repro/pkg/steady/platform"
)

// TestCachedResultFootprint bounds what one cached masterslave entry
// keeps alive: the decoded platform and its certified result, on the
// n=48 family a cold daemon serves (random ring plus 48 extra links,
// weights and costs in [1,5], 15 % forwarder-only nodes). A result
// stores its solution once, as the raw α and busy vectors, and builds
// Nodes and Links on demand. An entry retains ≈ 12 940 B. The ceiling
// sits below the ≈ 13 960 B an s vector that is a window into the LP's
// whole value array costs on its own; a second, materialised copy of
// the activity as slices costs ≈ 22 600 B.
func TestCachedResultFootprint(t *testing.T) {
	const (
		entries = 128
		ceiling = 13500 // bytes per entry, platform and result together
	)
	rng := rand.New(rand.NewSource(48))
	docs := make([]string, entries)
	for i := range docs {
		var buf bytes.Buffer
		if err := platform.RandomConnected(rng, 48, 48, 5, 5, 0.15).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		docs[i] = buf.String()
	}
	solver, err := steady.New(steady.Spec{Problem: "masterslave"})
	if err != nil {
		t.Fatal(err)
	}
	solve := func(doc string) *steady.Result {
		p, err := platform.DecodeJSON(doc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := solver.Solve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC() // the first cycle's sweep frees what it found dead, and empties the pools' victims
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	solve(docs[0]) // warm the lazily built tables every solve shares
	before := liveHeap()
	kept := make([]*steady.Result, entries)
	for i, doc := range docs {
		kept[i] = solve(doc)
	}
	after := liveHeap()
	runtime.KeepAlive(kept)
	runtime.KeepAlive(docs)

	per := int64(after-before) / entries
	t.Logf("%d B retained per cached n=48 masterslave entry (platform and result)", per)
	if per > ceiling {
		t.Fatalf("a cached entry retains %d B, ceiling %d B", per, ceiling)
	}
}
