package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/pkg/steady"
	"repro/pkg/steady/control"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileMatchesPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.25, 2.75}, {0.5, 5.5}, {0.75, 8.25}, {0, 1}, {1, 10}} {
		if got := quantile(ten, c.q); !near(got, c.want) {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	three := []float64{1, 2, 4}
	for _, c := range []struct{ q, want float64 }{{0.25, 1}, {0.5, 2}, {0.75, 4}} {
		if got := quantile(three, c.q); !near(got, c.want) {
			t.Errorf("quantile([1 2 4], %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("no samples: got %v, want 0", got)
	}
}

func TestSummarizeIsMedianOfRepsAndLeavesInputAlone(t *testing.T) {
	reps := []float64{250, 211, 256, 230, 240}
	s := summarize(reps)
	if s.Median != 240 || s.N != 5 {
		t.Fatalf("summary %+v", s)
	}
	if !near(s.Q1, 220.5) || !near(s.Q3, 253) {
		t.Errorf("quartiles %v..%v, want 220.5..253", s.Q1, s.Q3)
	}
	if !near(s.spread(), (253-220.5)/240) {
		t.Errorf("spread %v", s.spread())
	}
	for _, def := range endToEnd {
		want := s.Median
		if def.name == "p90_us" {
			want = s.Q1
		}
		if got := def.overReps(s); got != want {
			t.Errorf("%s over repetitions = %v, want %v", def.name, got, want)
		}
	}
	if reps[0] != 250 || reps[1] != 211 {
		t.Error("summarize sorted its argument in place")
	}
}

func TestGeneratorIsDeterministicPerSeed(t *testing.T) {
	for i := 0; i < 16; i++ {
		a := solveBody(platformAt(7, streamHot, i, hotNodes))
		b := solveBody(platformAt(7, streamHot, i, hotNodes))
		if !bytes.Equal(a, b) {
			t.Fatalf("hot platform %d: same seed, different bodies", i)
		}
	}
	seen := map[string]int64{}
	for _, seed := range []int64{1, 2, 3} {
		for i := 0; i < 16; i++ {
			fp := steady.Fingerprint(platformAt(seed, streamHot, i, hotNodes))
			if other, dup := seen[fp]; dup {
				t.Fatalf("seeds %d and %d share hot fingerprint %s", other, seed, fp[:12])
			}
			seen[fp] = seed
		}
	}
}

func TestColdStreamsNeverRepeatAFingerprint(t *testing.T) {
	seen := map[string]string{}
	for _, stream := range []int{streamColdWarmup, streamCold, streamColdTraced} {
		for i := 0; i < 3000; i++ {
			fp := steady.Fingerprint(platformAt(1, stream, i, coldNodes))
			at := fmt.Sprintf("stream %d index %d", stream, i)
			if prev, dup := seen[fp]; dup {
				t.Fatalf("%s repeats the platform of %s", at, prev)
			}
			seen[fp] = at
		}
	}
}

func TestRegimesNeverRepeatAndAlwaysTripTheDriftThreshold(t *testing.T) {
	base := platformAt(1, streamControl, 0, controlNodes)
	gen := newRegimeGen(1, base)
	prev := make([]int, base.NumEdges())
	for i := range prev {
		prev[i] = 8
	}
	seen := map[string]bool{fmt.Sprint(prev): true}
	for r := 0; r < 2000; r++ {
		k := gen.next()
		if key := fmt.Sprint(k); seen[key] {
			t.Fatalf("regime %d repeats an earlier one", r)
		} else {
			seen[key] = true
		}
		moved := 0.0
		for e := range k {
			if k[e] < 5 || k[e] > 13 {
				t.Fatalf("regime %d edge %d: multiplier %d/8 outside 5/8..13/8", r, e, k[e])
			}
			moved = max(moved, math.Abs(float64(k[e]-prev[e]))/float64(prev[e]))
		}
		if moved < 0.15 {
			t.Fatalf("regime %d moves no edge by 15%% (most: %.3f)", r, moved)
		}
		prev = k
	}
	again := newRegimeGen(1, base)
	first := newRegimeGen(1, base).next()
	if fmt.Sprint(again.next()) != fmt.Sprint(first) {
		t.Error("same seed, different first regime")
	}
	if fmt.Sprint(newRegimeGen(2, base).next()) == fmt.Sprint(first) {
		t.Error("different seeds, same first regime")
	}
}

func TestTelemetryBodyCoversEveryComputingNodeAndEdge(t *testing.T) {
	base := platformAt(3, streamControl, 0, controlNodes)
	k := newRegimeGen(3, base).next()
	var req struct {
		Observations []control.Observation `json:"observations"`
	}
	if err := json.Unmarshal(telemetryBody(base, k), &req); err != nil {
		t.Fatal(err)
	}
	nodes, edges := 0, 0
	for _, o := range req.Observations {
		if o.Node != "" {
			nodes++
		} else {
			e := base.FindEdge(base.NodeByName(o.From), base.NodeByName(o.To))
			if want := base.Edge(e).C.Float64() * float64(k[e]) / 8; o.Value != want {
				t.Errorf("edge %s>%s: value %v, want %v", o.From, o.To, o.Value, want)
			}
			edges++
		}
	}
	computing := 0
	for i := 0; i < base.NumNodes(); i++ {
		if base.CanCompute(i) {
			computing++
		}
	}
	if nodes != computing || edges != base.NumEdges() {
		t.Errorf("%d node and %d edge observations, want %d and %d", nodes, edges, computing, base.NumEdges())
	}
}

func TestModelPlatformRebuildsTheFingerprint(t *testing.T) {
	p := platformAt(5, streamControl, 0, controlNodes)
	snap := &control.Snapshot{}
	for i := 0; i < p.NumNodes(); i++ {
		snap.Nodes = append(snap.Nodes, control.ModelNode{Name: p.Name(i), Current: p.Weight(i).String()})
	}
	for _, ed := range p.Edges() {
		snap.Links = append(snap.Links, control.ModelLink{From: p.Name(ed.From), To: p.Name(ed.To), Current: ed.C.String()})
	}
	q, err := modelPlatform(snap)
	if err != nil {
		t.Fatal(err)
	}
	if steady.Fingerprint(q) != steady.Fingerprint(p) {
		t.Error("rebuilt platform has another fingerprint")
	}
}

func TestNormalizeReplyBlanksOnlyTheVolatileFields(t *testing.T) {
	direct := []byte("{\n  \"throughput\": \"3/2\",\n  \"cache_hit\": true,\n  \"elapsed_us\": 12\n}")
	forwarded := []byte("{\n  \"throughput\": \"3/2\",\n  \"cache_hit\": false,\n  \"elapsed_us\": 431\n}")
	if !bytes.Equal(normalizeReply(direct), normalizeReply(forwarded)) {
		t.Error("replies differing only in cache_hit and elapsed_us did not normalize equal")
	}
	other := bytes.Replace(forwarded, []byte("3/2"), []byte("4/3"), 1)
	if bytes.Equal(normalizeReply(direct), normalizeReply(other)) {
		t.Error("a different throughput normalized equal")
	}
}

func TestSelfTimeIsSpanMinusDirectChildren(t *testing.T) {
	spans := []span{
		{Req: 0, Name: "request", StartNs: 0, EndNs: 1000},
		{Req: 0, Name: "steady.solve", Parent: "request", StartNs: 100, EndNs: 900},
		{Req: 0, Name: "lp.solve", Parent: "steady.solve", StartNs: 200, EndNs: 800},
		{Req: 0, Name: "lp.float_search", Parent: "lp.solve", StartNs: 210, EndNs: 500},
		{Req: 0, Name: "lp.certify", Parent: "lp.solve", StartNs: 500, EndNs: 790},
		// A second request's children must not be charged to the first.
		{Req: 1, Name: "request", StartNs: 2000, EndNs: 2400},
		{Req: 1, Name: "steady.solve", Parent: "request", StartNs: 2100, EndNs: 2200},
	}
	self := selfTimes(spans)
	want := map[string][]float64{
		"request":         {0.2, 0.3},
		"steady.solve":    {0.2, 0.1},
		"lp.solve":        {0.02},
		"lp.float_search": {0.29},
		"lp.certify":      {0.29},
	}
	for name, w := range want {
		got := self[name]
		if len(got) != len(w) {
			t.Errorf("%s: %d self times, want %d", name, len(got), len(w))
			continue
		}
		for i := range w {
			if !near(got[i], w[i]) {
				t.Errorf("%s[%d]: self %v us, want %v", name, i, got[i], w[i])
			}
		}
	}
	if d := durations(spans)["lp.solve"]; len(d) != 1 || !near(d[0], 0.6) {
		t.Errorf("lp.solve duration %v, want [0.6]", d)
	}
}

func TestTracerWritesOneJSONLinePerSpan(t *testing.T) {
	tr := newTracer()
	tr.time(3, "platform.decode", "request", func() {})
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var s span
	if err := json.Unmarshal(bytes.TrimSpace(data), &s); err != nil {
		t.Fatalf("not one JSON object: %v: %s", err, data)
	}
	if s.Req != 3 || s.Name != "platform.decode" || s.Parent != "request" || s.EndNs < s.StartNs {
		t.Errorf("span %+v", s)
	}
}

func TestParseStatCPU(t *testing.T) {
	// utime is field 14, stime field 15; the command may hold spaces
	// and parentheses.
	stat := "4242 (steadyd (v2) x) S 1 4242 4242 0 -1 4194560 1500 0 0 0 137 45 0 0 20 0 9 0 123456 1000000 2000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	got, err := parseStatCPU(stat)
	if err != nil || got != 137+45 {
		t.Errorf("parseStatCPU = %d, %v; want 182", got, err)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 abc 5 0"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) succeeded", bad)
		}
	}
	if _, err := cpuTicks(os.Getpid()); err != nil {
		t.Errorf("own /proc stat: %v", err)
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tsteadyd\nVmPeak:\t  900000 kB\nVmHWM:\t   16740 kB\nVmRSS:\t   12000 kB\n"
	got, err := parseVmHWM(status)
	if err != nil || got != 16740 {
		t.Errorf("parseVmHWM = %d, %v; want 16740", got, err)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tmany kB\n"} {
		if _, err := parseVmHWM(bad); err == nil {
			t.Errorf("parseVmHWM(%q) succeeded", bad)
		}
	}
	if kib, err := peakRSSKiB(os.Getpid()); err != nil || kib == 0 {
		t.Errorf("own VmHWM: %d, %v", kib, err)
	}
}

func TestReferenceRequestIsFixedWork(t *testing.T) {
	h := referenceHandler()
	body := solveBody(platformAt(0, streamHot, 0, hotNodes))
	light := serve(h, "/ref", body)
	again := serve(h, "/ref", body)
	if light.Code != http.StatusOK || !bytes.Equal(light.Body.Bytes(), again.Body.Bytes()) {
		t.Fatalf("same request, different replies (status %d)", light.Code)
	}
	heavy := serve(h, "/ref?work=340", body)
	if heavy.Code != http.StatusOK || bytes.Equal(heavy.Body.Bytes(), light.Body.Bytes()) {
		t.Errorf("work=340 did no more than work=0 (status %d)", heavy.Code)
	}
	if bad := serve(h, "/ref", []byte("{")); bad.Code != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", bad.Code)
	}
}

func TestWeighIsBurstMedianOverNominal(t *testing.T) {
	srv := httptest.NewServer(referenceHandler())
	defer srv.Close()
	ref := &reference{url: srv.URL + "/ref", c: newClient(), body: []byte(`{"problem":"x"}`)}
	defer ref.c.hc.CloseIdleConnections()
	// A nominal of 1 µs makes the factor the burst's median in µs.
	us, err := ref.weigh(context.Background(), refKind{work: 3, burst: 9, nominalUs: 1})
	if err != nil || us <= 0 || us > 1e6 {
		t.Errorf("weigh = %v µs, %v", us, err)
	}
	ref.body = []byte("{")
	if _, err := ref.weigh(context.Background(), refLight); err == nil {
		t.Error("a burst the server refuses did not fail")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "p50_us", better: "lower", bound: 0.10}
	higher := metricDef{name: "ops_s", better: "higher", bound: 0.10}
	tight := func(m float64) summary { return summary{Median: m, Q1: m * 0.99, Q3: m * 1.01, N: 10} }
	wide := func(m float64) summary { return summary{Median: m, Q1: m * 0.9, Q3: m * 1.1, N: 10} }
	for _, c := range []struct {
		name string
		def  metricDef
		a, b summary
		want string
	}{
		{"same", lower, tight(250), tight(252), "ok"},
		{"faster is never worse", lower, tight(250), tight(150), "ok"},
		{"slower beyond the bound", lower, tight(250), tight(280), "worse"},
		{"slower inside the bound", lower, tight(250), tight(270), "ok"},
		{"throughput fell beyond the bound", higher, tight(4000), tight(3500), "worse"},
		{"throughput rose", higher, tight(4000), tight(5000), "ok"},
		{"spread hides a change of the bound's size", lower, wide(250), tight(255), "unresolved"},
		{"worse wins over unresolved", lower, wide(250), wide(300), "worse"},
	} {
		if _, got := verdict(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func writeSet(t *testing.T, name string, recs ...runRecord) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	for i := range recs {
		if err := appendRecord(path, &recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func TestCompareSetsExitStatus(t *testing.T) {
	run := func(p50 float64, failed int) runRecord {
		return runRecord{Workload: "hot_hit", Failed: failed, Metrics: map[string]metric{
			"p50_us": {Value: p50, Unit: "us"},
			"ops_s":  {Value: 1e6 / p50, Unit: "1/s"},
		}}
	}
	base := writeSet(t, "a.jsonl", run(250, 0), run(251, 0), run(249, 0))
	same := writeSet(t, "b.jsonl", run(252, 0), run(250, 0), run(251, 0))
	slow := writeSet(t, "c.jsonl", run(300, 0), run(301, 0), run(299, 0))
	failing := writeSet(t, "d.jsonl", run(250, 0), run(250, 2), run(250, 0))
	traced := writeSet(t, "e.jsonl", runRecord{Workload: "hot_hit", Traced: true})

	var out strings.Builder
	if code := compareSets(&out, base, same); code != 0 || !strings.Contains(out.String(), "ok") {
		t.Errorf("same commit twice: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareSets(&out, base, slow); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("20%% slower: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareSets(&out, base, failing); code != 1 || !strings.Contains(out.String(), "failed operations rose") {
		t.Errorf("more failures: exit %d\n%s", code, out.String())
	}
	if code := compareSets(&out, traced, same); code != 2 {
		t.Errorf("a set without untraced runs: exit %d, want 2", code)
	}
}

func TestLayerFromDeltaDividesByTheRightCounts(t *testing.T) {
	d := map[string]float64{
		"hits": 0, "solves": 400, "entries": 600, "scrape_us": 1000,
		"lp_solves": 400, "float_pivots": 22800, "fallback_warm_reject": 400,
		"lp_solve_sum": 0.8, "lp_solve_count": 400,
		"http_sum": 1.2, "http_count": 400,
		"forwards": 0,
	}
	m := layerFromDelta(d, 400, 2)
	for name, want := range map[string]float64{
		"batch.hit_ratio":           0,
		"batch.entries_end":         600,
		"lp.float_pivots_per_solve": 57,
		"lp.warm_reject_ratio":      1,
		"lp.solve_us":               2000,
		"lp.warm_us":                0, // no warm solves: 0, not NaN
		"server.handle_us":          3000,
		"obs.scrape_us":             500,
		"cluster.forward_ratio":     0,
	} {
		if got := m[name]; !near(got, want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestBenchmarkJSONMatchesTheCode keeps the contract file at the root
// of the repository and the lists the program reports from in step.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the code (or their why differs)", i, w.Name, workloads[i].name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the code", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		if want := endToEnd[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better || m.Bound != want.bound {
			t.Errorf("end_to_end[%d] = %+v, code has %+v", i, m, want)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the code", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		if want := perLayer[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per_layer[%d] = %+v, code has %+v", i, m, want)
		}
	}
}
