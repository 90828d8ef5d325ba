package platform

// Tests of DecodeJSON's pooled scratch and of build's contract: the
// scratch holds nothing the collector scans, a decoded platform shares
// no byte with its document, decodes that share the pool agree with the
// decoder alone, build refuses whatever Validate would, and a decode of
// the n=48 platform stays within a handful of allocations.

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// pointerFree reports whether a value of type t holds no pointer,
// string, interface, map, channel, function or slice.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Interface,
		reflect.Map, reflect.Chan, reflect.Func, reflect.Slice:
		return false
	}
	return true
}

// TestPooledScanScratchHoldsNothing: every field of the pooled scratch
// is a number or a slice of pointer-free elements. A scratch in the
// pool therefore pins no document — the spans are offsets — the
// collector never scans its arrays, and it needs no scrubbing on the
// way back.
func TestPooledScanScratchHoldsNothing(t *testing.T) {
	st := reflect.TypeFor[scratch]()
	for i := range st.NumField() {
		f := st.Field(i)
		elem := f.Type
		if elem.Kind() == reflect.Slice {
			elem = elem.Elem()
		}
		if !pointerFree(elem) {
			t.Errorf("scratch.%s is %v: it holds a pointer, a string or an interface", f.Name, f.Type)
		}
	}
}

// TestDecodedPlatformPinsNoBody: the node names of a decoded platform
// lie outside its document, whichever reader took it. A platform lives
// as long as the cache entry that holds it, and a name that were a
// substring of the document would keep a whole request body alive.
func TestDecodedPlatformPinsNoBody(t *testing.T) {
	plain := compact(t, random48())
	for _, tc := range []struct{ reader, doc string }{
		{"scan", plain},
		{"decoder", strings.Replace(plain, `"nodes"`, `"Nodes"`, 1)}, // encoding/json folds case; the scanner declines
	} {
		if _, scanned := scanPlatform(tc.doc); scanned != (tc.reader == "scan") {
			t.Fatalf("%s: scanned = %v", tc.reader, scanned)
		}
		p, err := DecodeJSON(tc.doc)
		if err != nil {
			t.Fatal(err)
		}
		lo := uintptr(unsafe.Pointer(unsafe.StringData(tc.doc)))
		hi := lo + uintptr(len(tc.doc))
		for i := range p.NumNodes() {
			if at := uintptr(unsafe.Pointer(unsafe.StringData(p.Name(i)))); lo <= at && at < hi {
				t.Fatalf("%s: the name %q of node %d lies inside the document", tc.reader, p.Name(i), i)
			}
		}
	}
}

// edgesFirstSpelling spells p compactly with its edges before its nodes.
func edgesFirstSpelling(tb testing.TB, p *Platform) string {
	tb.Helper()
	var jp jsonPlatform
	if err := json.Unmarshal([]byte(compact(tb, p)), &jp); err != nil {
		tb.Fatal(err)
	}
	doc, err := json.Marshal(struct {
		Edges []jsonEdge `json:"edges"`
		Nodes []jsonNode `json:"nodes"`
	}{jp.Edges, jp.Nodes})
	if err != nil {
		tb.Fatal(err)
	}
	return string(doc)
}

// TestConcurrentDecodes: eight goroutines decode documents of n = 4…64
// in both spellings and with the edges first, in an order of their own,
// through the one scratch pool; every platform is the one the decoder
// alone builds from the same document. A scratch that kept anything of
// the previous, larger or smaller, document shows up here.
func TestConcurrentDecodes(t *testing.T) {
	var docs []string
	for n := 4; n <= 64; n += 12 {
		p := RandomConnected(rand.New(rand.NewSource(int64(n))), n, n, 5, 5, 0.15)
		docs = append(docs, compact(t, p), indented(t, p), edgesFirstSpelling(t, p))
	}
	want := make([]string, len(docs))
	for i, doc := range docs {
		if _, ok := scanPlatform(doc); !ok {
			t.Fatalf("the scanner declined %.60q…", doc)
		}
		p, err := decodeOnly(doc)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p.String()
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for range 4 * len(docs) {
				i := rng.Intn(len(docs))
				p, err := DecodeJSON(docs[i])
				if err != nil {
					t.Errorf("goroutine %d, document %d: %v", g, i, err)
					return
				}
				if got := p.String(); got != want[i] {
					t.Errorf("goroutine %d, document %d: built\n%s the decoder alone\n%s", g, i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestBuildImpliesValidate: build refuses every platform Validate
// would — an empty one, a duplicate name, a non-positive cost — which
// is why DecodeJSON does not call Validate. Every platform either
// reader accepts from the tables here and the figures passes it.
func TestBuildImpliesValidate(t *testing.T) {
	docs := slices.Concat(invalidPlatforms, plainOddities, declined)
	for _, p := range []*Platform{Figure1(), Figure2(), random48()} {
		docs = append(docs, compact(t, p), indented(t, p), edgesFirstSpelling(t, p))
	}
	accepted := 0
	for _, doc := range docs {
		for _, decode := range []func(string) (*Platform, error){DecodeJSON, decodeOnly} {
			p, err := decode(doc)
			if err != nil {
				continue
			}
			accepted++
			if err := p.Validate(); err != nil {
				t.Errorf("build accepted %q, Validate refuses it: %v", doc, err)
			}
		}
	}
	if accepted < 10 {
		t.Fatalf("only %d decodes were accepted", accepted)
	}
}

// TestReadJSONAllocations pins what ReadJSON costs on the n=48 platform:
// the copy of the document and the platform's own storage, 9
// allocations and ≈ 13.9 KB in the compact spelling every /v1/solve body
// carries. The ceilings are 15 allocations and 15 000 bytes. Each of
// these regressions fails one: the scan's spans in slices of their own
// per document (≈ 20 KB), a clone per node name (48 allocations),
// Validate's name map after build (≈ 1.8 KB, 3 allocations), and the
// adjacency as a [][]int, a list per node (≈ 2.4 KB, 1 allocation).
func TestReadJSONAllocations(t *testing.T) {
	p := random48()
	for _, tc := range []struct {
		spelling string
		doc      []byte
		maxBytes uint64 // 0: no ceiling
	}{
		{"compact", []byte(compact(t, p)), 15_000},
		{"indented", []byte(indented(t, p)), 0},
	} {
		decode := func() {
			if _, err := ReadJSON(bytes.NewReader(tc.doc)); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(100, decode)
		// The cheapest decode, not the mean: a collection between two may
		// empty the pool, and the decode after it grows a scratch anew.
		cheapest := ^uint64(0)
		var before, after runtime.MemStats
		for range 20 {
			runtime.ReadMemStats(&before)
			decode()
			runtime.ReadMemStats(&after)
			cheapest = min(cheapest, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("%s (%d bytes): %.0f allocations, %d bytes", tc.spelling, len(tc.doc), allocs, cheapest)
		if raceEnabled() {
			continue // an instrumented binary's pool drops a Put in four
		}
		if allocs > 15 {
			t.Errorf("%s: %.0f allocations per n=48 decode, want <= 15", tc.spelling, allocs)
		}
		if tc.maxBytes > 0 && cheapest > tc.maxBytes {
			t.Errorf("%s: %d bytes allocated per n=48 decode, want <= %d", tc.spelling, cheapest, tc.maxBytes)
		}
	}
}

func raceEnabled() bool {
	info, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(info.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}
