package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var updateSuite = flag.Bool("update", false, "rewrite testdata/suite.golden from the current experiment output")

// TestSuiteGolden pins the whole E-suite byte for byte, in the format
// cmd/experiments prints it (header, output, blank line per
// experiment), unmasked: no experiment prints a wall time. The substring
// goldens below pin headline numbers; this pins everything else — the
// periods, slot counts and vertex-dependent figures a refactor of
// internal/core or internal/schedule can move without changing an
// optimum. Regenerate after an intentional change with:
//
//	go test ./internal/experiments -run TestSuiteGolden -update
func TestSuiteGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, e := range Registry() {
		fmt.Fprintf(&buf, "=== %s: %s ===\n", e.ID, e.Desc)
		var out bytes.Buffer
		if err := e.Run(&out); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		buf.Write(out.Bytes())
		buf.WriteByte('\n')
	}
	path := filepath.Join("testdata", "suite.golden")
	if *updateSuite {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		gl, wl := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("suite output drifted from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("suite output drifted from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}

// TestAllExperimentsRun is the end-to-end integration test: every
// experiment must complete and print its headline result.
func TestAllExperimentsRun(t *testing.T) {
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
		})
	}
}

func runOne(t *testing.T, id string) string {
	t.Helper()
	for _, e := range Registry() {
		if e.ID == id {
			var buf bytes.Buffer
			if err := e.Run(&buf); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			return buf.String()
		}
	}
	t.Fatalf("unknown experiment %s", id)
	return ""
}

// The golden assertions below pin the headline numbers recorded in
// EXPERIMENTS.md; a regression in any solver or model breaks them.

func TestE1Golden(t *testing.T) {
	out := runOne(t, "E1")
	for _, want := range []string{
		"ntask(G) = 4/3",
		"steady state after 2 periods",
		"8 tasks per period",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("E1 output missing %q:\n%s", want, out)
		}
	}
}

func TestE3Golden(t *testing.T) {
	out := runOne(t, "E3")
	for _, want := range []string{
		"sum-LP (scatter semantics, achievable) : TP = 1/2",
		"EXACT optimum (tree packing,  7 trees) : TP = 3/4",
		"max-LP bound (paper's relaxation)      : TP = 1",
		"NOT achievable (gap 1/4)",
		"P3->P4 (c=2)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("E3 output missing %q:\n%s", want, out)
		}
	}
}

func TestE4Golden(t *testing.T) {
	out := runOne(t, "E4")
	if strings.Contains(out, "GAP") {
		t.Fatalf("E4 found a broadcast gap (bound should be achievable):\n%s", out)
	}
	if strings.Count(out, "ACHIEVED") < 3 {
		t.Fatalf("E4 missing cases:\n%s", out)
	}
}

func TestE5GoldenRatiosDecrease(t *testing.T) {
	out := runOne(t, "E5")
	var ratios []float64
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 4 && fields[0] != "n" {
			var r float64
			if v, err := strconv.ParseFloat(fields[3], 64); err == nil {
				r = v
				ratios = append(ratios, r)
			}
		}
	}
	if len(ratios) < 4 {
		t.Fatalf("E5: found %d ratios:\n%s", len(ratios), out)
	}
	for i := 1; i < len(ratios); i++ {
		if ratios[i] > ratios[i-1] {
			t.Fatalf("E5 ratios not decreasing: %v", ratios)
		}
	}
	if last := ratios[len(ratios)-1]; last > 1.001 {
		t.Fatalf("E5 final ratio %v too far from 1", last)
	}
}

func TestE7GoldenReachesOptimum(t *testing.T) {
	out := runOne(t, "E7")
	if !strings.Contains(out, "1.0000") {
		t.Fatalf("E7 never reaches the optimum:\n%s", out)
	}
}

func TestE8GoldenAdaptiveWins(t *testing.T) {
	out := runOne(t, "E8")
	done := map[string]int{}
	for _, m := range regexp.MustCompile(`(?m)^  (static|adaptive) .*? (\d+) tasks`).FindAllStringSubmatch(out, -1) {
		done[m[1]], _ = strconv.Atoi(m[2])
	}
	if !strings.Contains(out, "re-solves") || done["static"] == 0 || done["adaptive"] <= done["static"] {
		t.Fatalf("E8: adaptive %d tasks, static %d; want adaptive ahead:\n%s", done["adaptive"], done["static"], out)
	}
}

func TestE11GoldenNoNegativeGap(t *testing.T) {
	out := runOne(t, "E11")
	if strings.Contains(out, "-") && strings.Contains(out, "gap -") {
		t.Fatalf("E11 negative gap (rate bound below achievable):\n%s", out)
	}
}

func TestE2GoldenScatterThroughput(t *testing.T) {
	out := runOne(t, "E2")
	// 3/10 (previously 1/2) since the scatter LP's delivery equation
	// became net of the target's own out-flow: the old witnesses
	// carried circulations through the targets that fabricated
	// throughput never leaving the source, which the simulation
	// subsystem (pkg/steady/sim) exposed — replaying the old schedule
	// delivered 0. The corrected value is achieved by the
	// reconstructed schedule in simulated time.
	if !strings.Contains(out, "TP = 3/10") {
		t.Fatalf("E2 missing Figure 1 scatter TP = 3/10:\n%s", out)
	}
	if !strings.Contains(out, "TP = 1/12") {
		t.Fatalf("E2 missing random-platform TP = 1/12:\n%s", out)
	}
}

func TestE9GoldenBoundOrdering(t *testing.T) {
	out := runOne(t, "E9")
	// On Figure 1 the shared-port bound (1.2083) sits below the
	// two-port bound (1.3333) and the greedy schedule achieves it.
	for _, want := range []string{"1.3333", "1.2083"} {
		if !strings.Contains(out, want) {
			t.Fatalf("E9 missing %q:\n%s", want, out)
		}
	}
}

func TestE10GoldenReconstructionBeatsNaive(t *testing.T) {
	out := runOne(t, "E10")
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 5 && strings.HasPrefix(fields[0], "tree-") {
			naive, err1 := strconv.ParseFloat(fields[1], 64)
			rec, err2 := strconv.ParseFloat(fields[2], 64)
			tru, err3 := strconv.ParseFloat(fields[3], 64)
			if err1 != nil || err2 != nil || err3 != nil {
				continue
			}
			if naive > rec+1e-9 || rec > tru+1e-9 {
				t.Fatalf("E10 ordering violated on %s: %v %v %v", fields[0], naive, rec, tru)
			}
		}
	}
}

func TestE12GoldenCollectives(t *testing.T) {
	out := runOne(t, "E12")
	// 7/15 (previously 1/2) after the net delivery fix — see
	// TestE2GoldenScatterThroughput; the exact tree packing on the
	// reversed platform meets 7/15, so the corrected bound is tight.
	if !strings.Contains(out, "Reduce to P1 on Figure 1: TP = 7/15") {
		t.Fatalf("E12 missing reduce value:\n%s", out)
	}
	if !strings.Contains(out, "TP = 1/4 per ordered pair") {
		t.Fatalf("E12 missing all-to-all value:\n%s", out)
	}
}

func TestE13GoldenNaivePoliciesLose(t *testing.T) {
	out := runOne(t, "E13")
	// FCFS and round-robin must be visibly worse than the bound.
	var worst float64
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 3 {
			if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil && v > worst && v < 10 {
				worst = v
			}
		}
	}
	if worst < 1.1 {
		t.Fatalf("E13: no policy lost substantially (worst ratio %v):\n%s", worst, out)
	}
}

func TestE15GoldenInteriorOptimum(t *testing.T) {
	out := runOne(t, "E15")
	if !strings.Contains(out, "sqrt trade-off") {
		t.Fatalf("E15 missing trade-off note:\n%s", out)
	}
	// Parse the rounds table and find the argmin; interior expected.
	var ms []float64
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 3 && fields[0] != "rounds" {
			if v, err := strconv.ParseFloat(fields[1], 64); err == nil {
				ms = append(ms, v)
			}
		}
	}
	if len(ms) < 5 {
		t.Fatalf("E15: parsed %d makespans:\n%s", len(ms), out)
	}
	best := 0
	for i := range ms {
		if ms[i] < ms[best] {
			best = i
		}
	}
	if best == 0 || best == len(ms)-1 {
		t.Fatalf("E15 optimum at the boundary: %v", ms)
	}
}

func TestE16GoldenCardsScale(t *testing.T) {
	out := runOne(t, "E16")
	for _, want := range []string{"2.0010", "4.0010", "reconstruct"} {
		if !strings.Contains(out, want) {
			t.Fatalf("E16 missing %q:\n%s", want, out)
		}
	}
}

func TestE3GoldenIncludesHeuristic(t *testing.T) {
	out := runOne(t, "E3")
	if !strings.Contains(out, "greedy tree packing (heuristic, [7])   : TP = 1/2") {
		t.Fatalf("E3 missing greedy heuristic row:\n%s", out)
	}
}

func TestE17GoldenGreedyWithinBound(t *testing.T) {
	out := runOne(t, "E17")
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 6 && strings.HasPrefix(fields[0], "random-") {
			g, err1 := strconv.ParseFloat(fields[3], 64)
			b, err2 := strconv.ParseFloat(fields[4], 64)
			if err1 != nil || err2 != nil {
				continue
			}
			if g > b+1e-9 {
				t.Fatalf("E17: greedy %v exceeds bound %v on %s", g, b, fields[0])
			}
			if g < b/4 {
				t.Fatalf("E17: greedy %v below a quarter of the bound %v", g, b)
			}
		}
	}
}
