package obs

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var updateMetrics = flag.Bool("update", false, "rewrite testdata/exposition.txt from the synthetic exposition fixture")

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.Counter("a_total", "").Inc()
	r.Counter("a_total", "").Add(5)
	if got := r.Counter("a_total", "").Value(); got != 0 {
		t.Fatalf("nil counter value = %d, want 0", got)
	}
	r.Gauge("g", "").Set(3)
	r.Gauge("g", "").Add(-1)
	r.Gauge("g", "").SetMax(9)
	if got := r.Gauge("g", "").Value(); got != 0 {
		t.Fatalf("nil gauge value = %v, want 0", got)
	}
	r.Histogram("h_seconds", "", nil).Observe(0.5)
	if got := r.Histogram("h_seconds", "", nil).Count(); got != 0 {
		t.Fatalf("nil histogram count = %d, want 0", got)
	}
	r.CounterVec("cv_total", "", "k").With("v").Inc()
	r.GaugeVec("gv", "", "k").With("v").Set(1)
	r.HistogramVec("hv_seconds", "", nil, "k").With("v").Observe(1)
	r.GaugeFunc("gf", "", func() float64 { return 1 })
	r.CounterFunc("cf_total", "", func() float64 { return 1 })
	sp := r.StartSpan("solve")
	if d := sp.End(); d != 0 {
		t.Fatalf("nil span duration = %v, want 0", d)
	}
	if rs := r.RecentSpans(); rs != nil {
		t.Fatalf("nil RecentSpans = %v, want nil", rs)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("nil WritePrometheus: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil registry rendered %q", buf.String())
	}
}

func TestInstrumentBasics(t *testing.T) {
	r := New()
	c := r.Counter("solves_total", "Total solves.")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("solves_total", "Total solves."); again != c {
		t.Fatalf("re-registration returned a different counter")
	}

	g := r.Gauge("depth", "Current depth.")
	g.Set(4)
	g.Add(-1.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
	g.SetMax(2)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("SetMax lowered gauge to %v", got)
	}
	g.SetMax(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("SetMax = %v, want 7", got)
	}

	h := r.Histogram("latency_seconds", "Latency.", nil)
	for _, v := range []float64{50e-6, 100e-6, 0.3, 2, 42} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("hist count = %d, want 5", got)
	}
	if got := h.Max(); got != 42 {
		t.Fatalf("hist max = %v, want 42", got)
	}
	wantSum := 50e-6 + 100e-6 + 0.3 + 2 + 42
	if math.Abs(h.Sum()-wantSum) > 1e-12 {
		t.Fatalf("hist sum = %v, want %v", h.Sum(), wantSum)
	}
	// 50µs and 100µs both land in the first bucket (le-inclusive);
	// 42 overflows past the 10s bound.
	want := []int64{2, 0, 0, 0, 1, 1, 1}
	got := h.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("snapshot len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestVecLabelsAndCardinalityBound(t *testing.T) {
	r := New()
	cv := r.CounterVec("req_total", "Requests.", "endpoint", "code")
	cv.With("/v1/solve", "200").Add(3)
	cv.With("/v1/solve", "400").Inc()
	if got := cv.With("/v1/solve", "200").Value(); got != 3 {
		t.Fatalf("labeled counter = %d, want 3", got)
	}

	// Past the cardinality bound, new label values collapse into _other.
	big := r.CounterVec("card_total", "Cardinality probe.", "id")
	for i := 0; i < MaxSeriesPerFamily+50; i++ {
		big.With(fmt.Sprintf("id%d", i)).Inc()
	}
	if got := big.With(fmt.Sprintf("id%d", MaxSeriesPerFamily+7)).Value(); got < 1 {
		t.Fatalf("overflow series absorbed nothing")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `card_total{id="_other"}`) {
		t.Fatalf("exposition missing _other overflow series:\n%s", buf.String())
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("x_total", "")
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"kind", func() { r.Gauge("x_total", "") }},
		{"labels", func() { r.CounterVec("x_total", "", "k") }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s mismatch did not panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

func TestSpansFeedHistogramAndRing(t *testing.T) {
	r := New()
	sp := r.StartSpan("lp_solve")
	time.Sleep(time.Millisecond)
	if d := sp.End(); d <= 0 {
		t.Fatalf("span duration = %v, want > 0", d)
	}
	r.StartSpan("certify").End()
	h := r.HistogramVec("steady_stage_duration_seconds", "", nil, "stage").With("lp_solve")
	if h.Count() != 1 {
		t.Fatalf("stage histogram count = %d, want 1", h.Count())
	}
	spans := r.RecentSpans()
	if len(spans) != 2 || spans[0].Stage != "lp_solve" || spans[1].Stage != "certify" {
		t.Fatalf("RecentSpans = %+v", spans)
	}

	// Overflow the ring; the oldest spans must fall off, newest stay.
	for i := 0; i < spanRingCapacity+10; i++ {
		r.StartSpan(fmt.Sprintf("s%d", i)).End()
	}
	spans = r.RecentSpans()
	if len(spans) != spanRingCapacity {
		t.Fatalf("ring len = %d, want %d", len(spans), spanRingCapacity)
	}
	if got := spans[len(spans)-1].Stage; got != fmt.Sprintf("s%d", spanRingCapacity+9) {
		t.Fatalf("newest span = %s", got)
	}
}

// TestConcurrentAccess hammers one registry from many goroutines while
// rendering it, and is expected to run under -race in CI.
func TestConcurrentAccess(t *testing.T) {
	r := New()
	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("conc_total", "")
			h := r.Histogram("conc_seconds", "", nil)
			cv := r.CounterVec("conc_labeled_total", "", "worker")
			g := r.Gauge("conc_gauge", "")
			for i := 0; i < iters; i++ {
				c.Inc()
				h.Observe(float64(i%7) * 1e-3)
				cv.With(fmt.Sprintf("w%d", w)).Inc()
				g.SetMax(float64(i))
				r.StartSpan("conc").End()
			}
		}(w)
	}
	// Render concurrently with the writers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var buf bytes.Buffer
			if err := r.WritePrometheus(&buf); err != nil {
				t.Errorf("render: %v", err)
				return
			}
			if _, err := ParseExposition(&buf); err != nil {
				t.Errorf("parse mid-flight render: %v", err)
				return
			}
			r.RecentSpans()
		}
	}()
	wg.Wait()
	<-done
	if got := r.Counter("conc_total", "").Value(); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	if got := r.Histogram("conc_seconds", "", nil).Count(); got != workers*iters {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
}

// syntheticRegistry builds a deterministic registry covering every
// instrument kind; it is the fixture behind the testdata/exposition.txt
// golden of the text format. Live latency values are wall-clock
// dependent and would land in different buckets run to run, so the
// golden is synthetic by design — the families a live server exports
// are catalogued in docs/METRICS.txt (pkg/steady/server's
// TestMetricsCatalog), and its exposition is validated for
// parseability in the server integration tests and CI.
func syntheticRegistry() *Registry {
	r := New()
	c := r.Counter("steady_lp_pivots_total", "Simplex pivots across all solves.")
	c.Add(1234)
	r.CounterVec("steady_lp_solves_total", "LP solves by search path.", "path").With("cold").Add(3)
	r.CounterVec("steady_lp_solves_total", "LP solves by search path.", "path").With("float").Add(9)
	r.CounterVec("steady_lp_solves_total", "LP solves by search path.", "path").With("warm").Add(4)
	g := r.Gauge("steady_sim_heap_depth_highwater", "Deepest event heap observed.")
	g.SetMax(17)
	r.GaugeFunc("steady_cache_entries", "Cached LP solutions resident.", func() float64 { return 42 })
	h := r.Histogram("steady_solve_duration_seconds", "End-to-end solve wall time.", nil)
	for _, v := range []float64{50e-6, 900e-6, 900e-6, 5e-3, 0.07, 0.7, 3, 25} {
		h.Observe(v)
	}
	hv := r.HistogramVec("steady_lp_phase_seconds", "Wall time per LP phase.", nil, "phase")
	hv.With("phase1").Observe(2e-3)
	hv.With("phase2").Observe(8e-3)
	hv.With("certify").Observe(4e-4)
	rv := r.CounterVec("steady_http_requests_total", "HTTP requests by endpoint and status.", "endpoint", "code")
	rv.With("/v1/solve", "200").Add(100)
	rv.With("/v1/solve", "422").Add(2)
	rv.With("/v1/stats", "200").Add(7)
	// The cluster families, mirrored read-through from the cluster's
	// own atomics in production (cluster.Cluster.SetObs).
	r.CounterFunc("steady_cluster_forwards_total", "Solve requests forwarded to their ring owner.", func() float64 { return 57 })
	r.CounterFunc("steady_cluster_basis_ships_total", "Warm bases fetched from peers.", func() float64 { return 2 })
	r.GaugeFunc("steady_cluster_peers_healthy", "Peers currently considered healthy.", func() float64 { return 3 })
	pu := r.GaugeVec("steady_cluster_peer_up", "Per-peer health (1 up, 0 down).", "peer")
	pu.With("http://10.0.0.1:8080").Set(1)
	pu.With("http://10.0.0.2:8080").Set(0)
	// The control-plane families (control.Manager, SetObs): tracked
	// deployments, telemetry-driven re-solves, and watch streaming.
	r.GaugeFunc("steady_control_deployments", "Deployments currently tracked.", func() float64 { return 2 })
	r.GaugeFunc("steady_control_watchers", "Live watch subscribers across deployments.", func() float64 { return 3 })
	res := r.CounterVec("steady_control_resolves_total", "Control-plane re-solves by reason.", "reason")
	res.With("create").Add(2)
	res.With("drift").Add(5)
	res.With("replace").Add(1)
	r.Counter("steady_control_warm_resolves_total", "Re-solves that reused the previous epoch's basis.").Add(5)
	r.Counter("steady_control_drift_events_total", "Ticks with forecast drift beyond the threshold.").Add(6)
	// The /v1/solve body-digest memo (pkg/steady/server).
	memo := r.CounterVec("steady_solve_memo_total", "POST /v1/solve bodies by whether the body-digest memo knew them.", "outcome")
	memo.With("hit").Add(91)
	memo.With("miss").Add(9)
	// Which reader took each telemetry body (pkg/steady/server).
	tel := r.CounterVec("steady_telemetry_decode_total", "Telemetry bodies by the reader that took them: the one-pass scanner of the plain spelling, or the strict reflective decoder.", "path")
	tel.With("scan").Add(4100)
	tel.With("strict").Add(3)
	// Which reader took each /v1/solve body the memo did not know (pkg/steady/server).
	sol := r.CounterVec("steady_solve_decode_total", "Parsed POST /v1/solve bodies by the reader that took them: the one-pass scanner of the plain spelling, or the strict reflective decoder.", "path")
	sol.With("scan").Add(8)
	sol.With("strict").Add(1)
	return r
}

func TestExpositionGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := syntheticRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "exposition.txt")
	if *updateMetrics {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regen with go test ./pkg/steady/obs -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition drifted from testdata/exposition.txt (regen with go test ./pkg/steady/obs -update)\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

func TestParseExpositionRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := syntheticRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ParseExposition: %v", err)
	}
	byName := map[string]float64{}
	for _, s := range samples {
		byName[s.Name+labelsKeyExcept(s.Labels, "")] = s.Value
	}
	if got := byName["steady_lp_pivots_total"]; got != 1234 {
		t.Fatalf("pivots sample = %v, want 1234", got)
	}
	if got := byName["steady_solve_duration_seconds_count"]; got != 8 {
		t.Fatalf("histogram count sample = %v, want 8", got)
	}
	var inf float64
	for _, s := range samples {
		if s.Name == "steady_solve_duration_seconds_bucket" && s.Labels["le"] == "+Inf" {
			inf = s.Value
		}
	}
	if inf != 8 {
		t.Fatalf("+Inf bucket = %v, want 8 (cumulative)", inf)
	}
}

func TestParseExpositionRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"no_value_here\n",
		"name{unterminated=\"x value 1\n",
		"1leading_digit 3\n",
		"# TYPE x notatype\nx 1\n",
		"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n",
	} {
		if _, err := ParseExposition(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseExposition accepted %q", bad)
		}
	}
}
