package main

import (
	"encoding/json"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
BenchmarkE1MasterSlave-8          	       1	  1804876 ns/op
BenchmarkLPColdVsWarm/Cold-8      	       5	   3329565 ns/op	        20.00 pivots/solve
BenchmarkLPColdVsWarm/Warm-8      	       5	   1945626 ns/op	         2.500 pivots/solve
BenchmarkSimAdaptiveWarm          	       5	   8897509 ns/op	         0.1600 pivots/resolve
BenchmarkLPColdMiss48-8           	    2000	    880087 ns/op	        56.77 float_pivots/solve	  469303 B/op	    1238 allocs/op
BenchmarkRingOwner-8              	 1000000	        52.10 ns/op	       0 B/op	       0 allocs/op
BenchmarkShardedCacheParallel-8   	 5619front	garbage line
PASS
ok  	repro	0.094s
`

func TestParse(t *testing.T) {
	results, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("parsed %d results, want 6: %+v", len(results), results)
	}
	byName := map[string]Result{}
	for _, r := range results {
		byName[r.Name] = r
	}
	e1 := byName["E1MasterSlave"]
	if e1.Iterations != 1 || e1.NsPerOp != 1804876 {
		t.Fatalf("E1 = %+v", e1)
	}
	cold := byName["LPColdVsWarm/Cold"]
	if cold.NsPerOp != 3329565 || cold.Pivots != 20 {
		t.Fatalf("cold = %+v", cold)
	}
	warm := byName["LPColdVsWarm/Warm"]
	if warm.Pivots != 2.5 || warm.Metrics["pivots/solve"] != 2.5 {
		t.Fatalf("warm = %+v", warm)
	}
	// No -GOMAXPROCS suffix on this one: name must survive intact.
	ad := byName["SimAdaptiveWarm"]
	if ad.Pivots != 0.16 {
		t.Fatalf("adaptive = %+v", ad)
	}
	// -benchmem columns are carried when present (a measured 0 too),
	// absent otherwise — in the struct and in the JSON.
	miss := byName["LPColdMiss48"]
	if miss.BytesPerOp == nil || *miss.BytesPerOp != 469303 || miss.AllocsPerOp == nil || *miss.AllocsPerOp != 1238 {
		t.Fatalf("cold miss = %+v", miss)
	}
	ring := byName["RingOwner"]
	if ring.AllocsPerOp == nil || *ring.AllocsPerOp != 0 {
		t.Fatalf("ring = %+v", ring)
	}
	if e1.BytesPerOp != nil || e1.AllocsPerOp != nil {
		t.Fatalf("E1 has no -benchmem columns: %+v", e1)
	}
	enc, err := json.Marshal([]Result{ring, e1})
	if err != nil {
		t.Fatal(err)
	}
	if got := string(enc); strings.Count(got, `"allocs_per_op":0`) != 1 || strings.Count(got, "bytes_per_op") != 1 {
		t.Fatalf("JSON: %s", got)
	}
}

func TestDiff(t *testing.T) {
	base := []Result{
		{Name: "LPColdVsWarm/Cold", NsPerOp: 3e6, Metrics: map[string]float64{"ns/op": 3e6, "pivots/solve": 20}},
		{Name: "LPFloatFirstCold/FloatFirst", NsPerOp: 9e6, Metrics: map[string]float64{"ns/op": 9e6, "float_pivots/solve": 106, "fallbacks/solve": 0}},
	}
	clone := func() []Result {
		out := make([]Result, len(base))
		for i, b := range base {
			m := map[string]float64{}
			for k, v := range b.Metrics {
				m[k] = v
			}
			out[i] = Result{Name: b.Name, NsPerOp: b.NsPerOp, Metrics: m}
		}
		return out
	}

	var buf strings.Builder
	if !Diff(&buf, base, clone()) {
		t.Fatalf("identical run failed the diff:\n%s", buf.String())
	}

	// ns/op movement alone is informational, never a failure.
	run := clone()
	run[0].NsPerOp *= 10
	run[0].Metrics["ns/op"] *= 10
	buf.Reset()
	if !Diff(&buf, base, run) {
		t.Fatalf("ns/op drift failed the diff:\n%s", buf.String())
	}

	// A pivot metric drifting is a failure.
	run = clone()
	run[0].Metrics["pivots/solve"] = 21
	buf.Reset()
	if Diff(&buf, base, run) {
		t.Fatal("pivot drift passed the diff")
	}
	if !strings.Contains(buf.String(), "drifted 20 -> 21") {
		t.Fatalf("drift report missing:\n%s", buf.String())
	}

	// So is a fallback count appearing where the baseline had none.
	run = clone()
	run[1].Metrics["fallbacks/solve"] = 1
	if Diff(&strings.Builder{}, base, run) {
		t.Fatal("fallback drift passed the diff")
	}

	// Allocation columns are reported, never gated, and a baseline
	// without them (every BENCH_PR file so far, mostly) is tolerated.
	run = clone()
	run[0].Metrics["allocs/op"], run[0].Metrics["B/op"] = 1238, 469303
	buf.Reset()
	if !Diff(&buf, base, run) {
		t.Fatalf("allocation columns failed the diff:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "LPColdVsWarm/Cold allocs/op 1238 (informational, not in baseline)") {
		t.Fatalf("allocs report absent:\n%s", buf.String())
	}
	withAllocs := clone()
	withAllocs[0].Metrics["allocs/op"] = 11795
	buf.Reset()
	if !Diff(&buf, withAllocs, run) || !strings.Contains(buf.String(), "allocs/op 11795 -> 1238 (informational)") {
		t.Fatalf("allocs movement must be reported and pass:\n%s", buf.String())
	}

	// A baseline benchmark missing from the run is a failure ...
	buf.Reset()
	if Diff(&buf, base, clone()[:1]) {
		t.Fatal("missing benchmark passed the diff")
	}
	if !strings.Contains(buf.String(), "missing from this run") {
		t.Fatalf("missing-bench report absent:\n%s", buf.String())
	}

	// ... but a benchmark new in the run is only informational.
	run = append(clone(), Result{Name: "Brand/New", NsPerOp: 1, Metrics: map[string]float64{"ns/op": 1}})
	buf.Reset()
	if !Diff(&buf, base, run) {
		t.Fatalf("new benchmark failed the diff:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "new benchmark Brand/New") {
		t.Fatalf("new-bench note absent:\n%s", buf.String())
	}
}

func TestParseLineRejectsGarbage(t *testing.T) {
	for _, line := range []string{
		"",
		"PASS",
		"ok  \trepro\t0.094s",
		"BenchmarkOnly",
		"BenchmarkX-8\tnotanumber\t12 ns/op",
		"BenchmarkX-8\t5\t12 widgets", // no ns/op
	} {
		if _, ok := parseLine(line); ok {
			t.Fatalf("accepted %q", line)
		}
	}
}
