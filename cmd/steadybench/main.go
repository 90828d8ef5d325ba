// Command steadybench load-tests a steadyd server or cluster: it
// fires a configurable mix of /v1/solve, /v1/simulate, and /v1/sweep
// requests over a hot set of platforms at a target rate (or flat out),
// tracks latency in an obs.Histogram over logarithmic buckets, and —
// when the targets are clustered — scrapes /v1/cluster before and
// after to report the cluster-wide cache hit rate, forwarding, and
// basis-ship traffic the run generated.
//
// Usage:
//
//	steadybench -targets http://127.0.0.1:8081,http://127.0.0.1:8082,http://127.0.0.1:8083 \
//	    -duration 10s -conns 64 -mix solve=100 -platforms 16
//
//	steadybench -targets http://127.0.0.1:8080 -rate 5000 -mix solve=95,simulate=5 -json
//
// The platform hot set is seeded, so two runs against the same cluster
// hit the same cache keys; requests round-robin across targets, so on
// a cluster most land on a non-owner and exercise forwarding. A run is
// "hot-dominated" after the first pass over the hot set: every later
// solve is a cache hit on its owner (scripts/cluster_smoke.sh builds
// its hit-rate gate on exactly this). Its req/s and latencies are a
// local reading; the numbers this repository records and gates come
// from bench/.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/pkg/steady/obs"
	"repro/pkg/steady/platform"
)

// latBuckets are the latency histogram's upper bounds in microseconds,
// log-spaced 1-2-5 so four decades of latency fit in thirteen counters.
var latBuckets = []float64{
	100, 200, 500,
	1000, 2000, 5000,
	10000, 20000, 50000,
	100000, 200000, 500000,
	1000000,
}

// tally is what one phase of load recorded, shared by its workers: the
// product's own lock-free histogram (the type steadyd's /metrics
// renders) over request latencies in microseconds, and a count per
// HTTP status (index 0: transport error).
type tally struct {
	lat      *obs.Histogram
	statuses [600]atomic.Int64
}

func newTally() *tally {
	return &tally{lat: obs.New().Histogram("steadybench_request_duration_us", "Request latency in microseconds.", latBuckets)}
}

func (t *tally) observe(us int64, status int) {
	t.lat.Observe(float64(us))
	t.statuses[min(status, len(t.statuses)-1)].Add(1)
}

// quantile returns the upper bound of the bucket holding the q-th
// latency quantile, in microseconds (an upper estimate, never under); a
// quantile past the last bound reports the observed maximum, an empty
// histogram 0.
func quantile(h *obs.Histogram, q float64) int64 {
	n, bounds := h.Count(), h.Bounds()
	if n == 0 {
		return 0
	}
	rank := min(int64(q*float64(n)), n-1)
	var cum int64
	for i, c := range h.Snapshot()[:len(bounds)] {
		if cum += c; cum > rank {
			return int64(bounds[i])
		}
	}
	return int64(h.Max())
}

// clusterScrape is the slice of GET /v1/cluster steadybench reads —
// kept minimal so the tool keeps working as the endpoint grows.
type clusterScrape struct {
	Enabled  bool `json:"enabled"`
	Counters struct {
		Forwards        int64 `json:"forwards"`
		ForwardErrors   int64 `json:"forward_errors"`
		ForwardedServed int64 `json:"forwarded_served"`
	} `json:"counters"`
	Cache struct {
		Solves int64 `json:"solves"`
		Hits   int64 `json:"hits"`
	} `json:"cache"`
}

// report is the run summary, printed as text or (with -json) one JSON
// object for scripts to gate on.
type report struct {
	Targets     int     `json:"targets"`
	Requests    int64   `json:"requests"`
	Errors      int64   `json:"errors"`
	DurationSec float64 `json:"duration_s"`
	RPS         float64 `json:"rps"`

	MeanUs int64 `json:"mean_us"`
	P50Us  int64 `json:"p50_us"`
	P90Us  int64 `json:"p90_us"`
	P99Us  int64 `json:"p99_us"`
	MaxUs  int64 `json:"max_us"`

	Statuses map[string]int64 `json:"statuses"`

	Cluster bool `json:"cluster"`
	// Deltas across the run, summed over all targets.
	Solves    int64   `json:"solves"`
	Hits      int64   `json:"hits"`
	HitRate   float64 `json:"hit_rate"`
	Forwards  int64   `json:"forwards"`
	FwdErrors int64   `json:"forward_errors"`
}

type job struct {
	path string
	body []byte
}

func main() {
	var (
		targets   = flag.String("targets", "http://127.0.0.1:8080", "comma-separated steadyd base URLs; requests round-robin across them")
		duration  = flag.Duration("duration", 10*time.Second, "how long to fire")
		conns     = flag.Int("conns", 64, "concurrent connections (worker goroutines)")
		rate      = flag.Float64("rate", 0, "target request rate per second across all workers (0 = open throttle)")
		mix       = flag.String("mix", "solve=100", "request mix as kind=weight, e.g. solve=90,simulate=8,sweep=2")
		nplat     = flag.Int("platforms", 16, "distinct platforms in the hot set")
		sizes     = flag.String("sizes", "6,8", "platform node counts, cycled")
		seed      = flag.Int64("seed", 1, "platform-generator seed (same seed, same cache keys)")
		problem   = flag.String("problem", "masterslave", "problem to solve")
		warmup    = flag.Duration("warmup", 0, "untimed warmup before measuring (0 = none)")
		jsonOut   = flag.Bool("json", false, "print the report as one JSON object")
		sweepPlat = flag.Int("sweep-platforms", 4, "platforms per /v1/sweep request")
	)
	flag.Parse()

	tgts := splitList(*targets)
	if len(tgts) == 0 {
		log.Fatal("steadybench: no targets")
	}
	jobs, err := buildJobs(*mix, *problem, *nplat, *sweepPlat, *sizes, *seed)
	if err != nil {
		log.Fatalf("steadybench: %v", err)
	}

	client := &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     *conns,
			MaxIdleConnsPerHost: *conns,
			MaxIdleConns:        *conns * len(tgts),
			IdleConnTimeout:     90 * time.Second,
		},
		Timeout: 2 * time.Minute,
	}

	if *warmup > 0 {
		runPhase(client, tgts, jobs, *warmup, *conns, 0)
	}
	before := scrapeAll(client, tgts)

	start := time.Now()
	h := runPhase(client, tgts, jobs, *duration, *conns, *rate)
	elapsed := time.Since(start)

	after := scrapeAll(client, tgts)

	rep := report{
		Targets:     len(tgts),
		Requests:    h.lat.Count(),
		DurationSec: elapsed.Seconds(),
		RPS:         float64(h.lat.Count()) / elapsed.Seconds(),
		P50Us:       quantile(h.lat, 0.50),
		P90Us:       quantile(h.lat, 0.90),
		P99Us:       quantile(h.lat, 0.99),
		MaxUs:       int64(h.lat.Max()),
		Statuses:    map[string]int64{},
	}
	if rep.Requests > 0 {
		rep.MeanUs = int64(h.lat.Sum()) / rep.Requests
	}
	for s := range h.statuses {
		c := h.statuses[s].Load()
		if c == 0 {
			continue
		}
		rep.Statuses[strconv.Itoa(s)] = c
		if s == 0 || s >= 400 {
			rep.Errors += c
		}
	}
	for i := range tgts {
		if !after[i].Enabled {
			continue
		}
		rep.Cluster = true
		rep.Solves += after[i].Cache.Solves - before[i].Cache.Solves
		rep.Hits += after[i].Cache.Hits - before[i].Cache.Hits
		rep.Forwards += after[i].Counters.Forwards - before[i].Counters.Forwards
		rep.FwdErrors += after[i].Counters.ForwardErrors - before[i].Counters.ForwardErrors
	}
	if lookups := rep.Solves + rep.Hits; lookups > 0 {
		rep.HitRate = float64(rep.Hits) / float64(lookups)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		if err := enc.Encode(rep); err != nil {
			log.Fatalf("steadybench: %v", err)
		}
		return
	}
	fmt.Printf("steadybench: %d requests in %.2fs = %.0f req/s (%d errors) across %d target(s)\n",
		rep.Requests, rep.DurationSec, rep.RPS, rep.Errors, rep.Targets)
	fmt.Printf("  latency: mean %s  p50 <=%s  p90 <=%s  p99 <=%s  max %s\n",
		us(rep.MeanUs), us(rep.P50Us), us(rep.P90Us), us(rep.P99Us), us(rep.MaxUs))
	fmt.Printf("  statuses: %v\n", rep.Statuses)
	if rep.Cluster {
		fmt.Printf("  cluster: hit rate %.1f%% (%d hits / %d solves)  forwards %d (%d errors)\n",
			100*rep.HitRate, rep.Hits, rep.Solves, rep.Forwards, rep.FwdErrors)
	}
}

func us(v int64) string { return time.Duration(v * int64(time.Microsecond)).String() }

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// buildJobs prebuilds every request body once: the workers' hot loop
// only picks a slice and POSTs it. The mix expands into a 100-slot
// schedule the workers cycle through, so a weight of 5 is exactly 5%.
func buildJobs(mix, problem string, nplat, sweepPlat int, sizesCSV string, seed int64) ([]job, error) {
	var sizes []int
	for _, s := range splitList(sizesCSV) {
		n, err := strconv.Atoi(s)
		if err != nil || n < 2 {
			return nil, fmt.Errorf("bad size %q", s)
		}
		sizes = append(sizes, n)
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("no platform sizes")
	}
	if nplat <= 0 {
		return nil, fmt.Errorf("platforms must be positive")
	}

	// The hot set: nplat distinct platforms, deterministically seeded.
	plats := make([]json.RawMessage, nplat)
	for i := range plats {
		rng := rand.New(rand.NewSource(seed + int64(i)))
		n := sizes[i%len(sizes)]
		p := platform.RandomConnected(rng, n, n, 5, 5, 0.15)
		var buf bytes.Buffer
		if err := p.WriteJSON(&buf); err != nil {
			return nil, err
		}
		plats[i] = json.RawMessage(buf.Bytes())
	}

	type kindSpec struct {
		weight int
		build  func(p json.RawMessage, i int) (string, any)
	}
	kinds := map[string]kindSpec{
		"solve": {build: func(p json.RawMessage, _ int) (string, any) {
			return "/v1/solve", map[string]any{"problem": problem, "platform": p}
		}},
		"simulate": {build: func(p json.RawMessage, _ int) (string, any) {
			return "/v1/simulate", map[string]any{
				"problem": problem, "platform": p,
				"scenario": map[string]any{"periods": 4},
			}
		}},
		"sweep": {build: func(_ json.RawMessage, i int) (string, any) {
			lo := i % nplat
			hi := lo + sweepPlat
			var family []json.RawMessage
			for j := lo; j < hi; j++ {
				family = append(family, plats[j%nplat])
			}
			return "/v1/sweep", map[string]any{"problem": problem, "platforms": family}
		}},
	}
	total := 0
	for _, part := range splitList(mix) {
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad mix part %q (want kind=weight)", part)
		}
		spec, known := kinds[k]
		if !known {
			return nil, fmt.Errorf("unknown mix kind %q (solve|simulate|sweep)", k)
		}
		w, err := strconv.Atoi(v)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("bad mix weight %q", part)
		}
		spec.weight = w
		kinds[k] = spec
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("mix %q has zero total weight", mix)
	}

	// One job per (mix slot, hot platform): the schedule interleaves
	// kinds at their weights and walks the hot set.
	var jobs []job
	names := []string{"solve", "simulate", "sweep"} // stable order
	for i := 0; i < nplat; i++ {
		for _, name := range names {
			spec := kinds[name]
			count := spec.weight * 100 / total
			if count == 0 {
				continue
			}
			path, body := spec.build(plats[i], i)
			raw, err := json.Marshal(body)
			if err != nil {
				return nil, err
			}
			for w := 0; w < count; w++ {
				jobs = append(jobs, job{path: path, body: raw})
			}
		}
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("mix %q built no requests", mix)
	}
	return jobs, nil
}

// runPhase fires jobs at the targets for d with nconns workers and an
// optional total rate cap, returning what they recorded.
func runPhase(client *http.Client, targets []string, jobs []job, d time.Duration, nconns int, rate float64) *tally {
	deadline := time.Now().Add(d)
	var next atomic.Int64 // shared request sequence, for pacing + job/target selection
	var interval time.Duration
	start := time.Now()
	if rate > 0 {
		interval = time.Duration(float64(time.Second) / rate)
	}

	h := newTally()
	var wg sync.WaitGroup
	for w := 0; w < nconns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := next.Add(1) - 1
				if interval > 0 {
					at := start.Add(time.Duration(n) * interval)
					if at.After(deadline) {
						return
					}
					if wait := time.Until(at); wait > 0 {
						time.Sleep(wait)
					}
				}
				if time.Now().After(deadline) {
					return
				}
				j := jobs[int(n)%len(jobs)]
				t := targets[int(n)%len(targets)]
				t0 := time.Now()
				status := doOne(client, t, j)
				h.observe(time.Since(t0).Microseconds(), status)
			}
		}()
	}
	wg.Wait()
	return h
}

// doOne POSTs one request and drains the response; status 0 means a
// transport error.
func doOne(client *http.Client, target string, j job) int {
	resp, err := client.Post(target+j.path, "application/json", bytes.NewReader(j.body))
	if err != nil {
		return 0
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// scrapeAll reads every target's /v1/cluster; a failed or non-cluster
// scrape leaves Enabled false so single-node runs just skip the
// cluster section.
func scrapeAll(client *http.Client, targets []string) []clusterScrape {
	out := make([]clusterScrape, len(targets))
	for i, t := range targets {
		resp, err := client.Get(t + "/v1/cluster")
		if err != nil {
			continue
		}
		if resp.StatusCode == http.StatusOK {
			_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&out[i])
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	return out
}
