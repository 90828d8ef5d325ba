// Command benchjson converts `go test -bench` output into a
// machine-readable JSON record of the performance trajectory: one
// entry per benchmark with its name, ns/op, and any custom metrics
// (the LP benchmarks report pivots/solve and pivots/resolve). CI
// pipes the bench-smoke job through it and diffs the result against
// the committed BENCH_PR10.json, so perf regressions are visible in
// history instead of scrolling away in a log.
//
//	go test -bench=. -benchtime=1x -run='^$' ./... | benchjson -out BENCH.json
//
// With -diff, the fresh run is compared against a checked-in
// baseline: a benchmark that exists in the baseline but not in the
// run fails the diff (a bench silently rotted away), as does drift in
// any deterministic trajectory metric (pivot and fallback counts —
// those are properties of the algorithm, not the machine). ns/op is
// reported but never gated: CI runners are too noisy to assert on
// wall time. B/op and allocs/op (a run with -benchmem or
// b.ReportAllocs) are carried and reported the same way; a baseline
// recorded without them is fine.
//
//	go test -bench=. -benchtime=1x -run='^$' ./... | benchjson -diff BENCH_PR10.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	diff := flag.String("diff", "", "baseline JSON to diff the run against: fail on missing benchmarks or pivot-metric drift (ns/op stays informational)")
	flag.Parse()

	results, err := Parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if *diff != "" {
		f, err := os.Open(*diff)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		var base []Result
		err = json.NewDecoder(f).Decode(&base)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *diff, err)
			os.Exit(1)
		}
		if !Diff(os.Stderr, base, results) {
			os.Exit(1)
		}
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks\n", len(results))
}

// Result is one benchmark line.
type Result struct {
	// Name is the benchmark name without the "Benchmark" prefix or
	// the -GOMAXPROCS suffix (e.g. "LPColdVsWarm/Warm").
	Name string `json:"name"`
	// Iterations is the b.N the line reports.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the ns/op measurement.
	NsPerOp float64 `json:"ns_per_op"`
	// Pivots is the pivots/solve or pivots/resolve custom metric of
	// the LP benchmarks, when present.
	Pivots float64 `json:"pivots,omitempty"`
	// BytesPerOp and AllocsPerOp are the -benchmem measurements; nil
	// when the line has none (0 allocs/op is a measurement).
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds every reported unit (ns/op and pivots included),
	// keyed by unit name.
	Metrics map[string]float64 `json:"metrics"`
}

// gatedUnit reports whether a metric unit is a deterministic
// trajectory metric that -diff must hold fixed. Pivot and fallback
// counts are functions of the platform seeds and the (deterministic)
// pivot rules; they cannot legitimately drift without a code change
// that should also regenerate the baseline.
func gatedUnit(unit string) bool {
	return strings.Contains(unit, "pivots") || strings.Contains(unit, "fallbacks")
}

// Diff compares a fresh run against a baseline, writing a report to
// w. It returns false — the diff fails — when a baseline benchmark is
// missing from the run or a gated metric drifted. Benchmarks new in
// the run and ns/op movement are reported but never fail the diff.
func Diff(w io.Writer, base, run []Result) bool {
	byName := map[string]Result{}
	for _, r := range run {
		byName[r.Name] = r
	}
	ok := true
	for _, b := range base {
		r, found := byName[b.Name]
		if !found {
			fmt.Fprintf(w, "benchjson: FAIL %s: in baseline but missing from this run\n", b.Name)
			ok = false
			continue
		}
		for unit, want := range b.Metrics {
			if !gatedUnit(unit) {
				continue
			}
			got, has := r.Metrics[unit]
			switch {
			case !has:
				fmt.Fprintf(w, "benchjson: FAIL %s: metric %s gone (baseline %g)\n", b.Name, unit, want)
				ok = false
			case got != want:
				fmt.Fprintf(w, "benchjson: FAIL %s: %s drifted %g -> %g\n", b.Name, unit, want, got)
				ok = false
			}
		}
		if b.NsPerOp > 0 && r.NsPerOp > 0 {
			fmt.Fprintf(w, "benchjson: %s ns/op %.0f -> %.0f (%.2fx, informational)\n",
				b.Name, b.NsPerOp, r.NsPerOp, r.NsPerOp/b.NsPerOp)
		}
		for _, unit := range []string{"B/op", "allocs/op"} {
			got, has := r.Metrics[unit]
			if !has {
				continue
			}
			if was, had := b.Metrics[unit]; had {
				fmt.Fprintf(w, "benchjson: %s %s %.0f -> %.0f (informational)\n", b.Name, unit, was, got)
			} else {
				fmt.Fprintf(w, "benchjson: %s %s %.0f (informational, not in baseline)\n", b.Name, unit, got)
			}
		}
	}
	inBase := map[string]bool{}
	for _, b := range base {
		inBase[b.Name] = true
	}
	for _, r := range run {
		if !inBase[r.Name] {
			fmt.Fprintf(w, "benchjson: new benchmark %s (not in baseline)\n", r.Name)
		}
	}
	return ok
}

// Parse reads `go test -bench` output and extracts every benchmark
// line; non-benchmark lines (package headers, PASS/ok) are skipped.
func Parse(r io.Reader) ([]Result, error) {
	results := []Result{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		res, ok := parseLine(sc.Text())
		if ok {
			results = append(results, res)
		}
	}
	return results, sc.Err()
}

// parseLine parses one "BenchmarkName-8  N  V unit  V unit ..." line.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 || len(fields[0]) <= len("Benchmark") || fields[0][:len("Benchmark")] != "Benchmark" {
		return Result{}, false
	}
	name := fields[0][len("Benchmark"):]
	// Strip the -GOMAXPROCS suffix, if any.
	for i := len(name) - 1; i > 0; i-- {
		c := name[i]
		if c == '-' {
			name = name[:i]
			break
		}
		if c < '0' || c > '9' {
			break
		}
	}
	var iters int64
	if _, err := fmt.Sscanf(fields[1], "%d", &iters); err != nil {
		return Result{}, false
	}
	res := Result{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	// The remainder alternates "value unit".
	for i := 2; i+1 < len(fields); i += 2 {
		var v float64
		if _, err := fmt.Sscanf(fields[i], "%g", &v); err != nil {
			return Result{}, false
		}
		unit := fields[i+1]
		res.Metrics[unit] = v
		switch unit {
		case "ns/op":
			res.NsPerOp = v
		case "pivots/solve", "pivots/resolve", "pivots":
			res.Pivots = v
		case "B/op":
			res.BytesPerOp = &v
		case "allocs/op":
			res.AllocsPerOp = &v
		}
	}
	if _, ok := res.Metrics["ns/op"]; !ok {
		return Result{}, false
	}
	return res, true
}
