// Package server exposes the pkg/steady solver registry as a
// long-running HTTP service (cmd/steadyd is its binary shell). It is
// the service layer the ROADMAP's "heavy traffic" north star calls
// for: every solve is an exact-rational LP, results are shared
// through the sharded pkg/steady/batch cache, and the endpoints are
// plain JSON so clients need no knowledge of the paper.
//
// Endpoints (full reference with schemas in docs/API.md):
//
//	GET  /v1/solvers  registered problems and their parameters
//	POST /v1/solve    one platform + spec -> certified exact result
//	POST /v1/sweep    platform family -> streamed NDJSON/CSV records
//	POST /v1/simulate one platform + spec + scenario -> simulation report
//	POST /v1/simsweep platform family x scenarios -> streamed records
//	GET  /v1/healthz  liveness probe
//	GET  /v1/stats    cache/simulation counters and latency histograms
//	GET  /v1/cluster  cluster membership, ring, and forwarding counters
//	GET  /metrics     the same registry in Prometheus text format
//
// The server defends the exact simplex — whose worst case is
// exponential — with three request limits: platform size caps
// (Config.MaxNodes/MaxEdges, HTTP 413), a per-request deadline
// (Config.SolveTimeout, HTTP 504), and a bound on concurrently
// running solves (Config.MaxInFlight; excess requests queue up to
// Config.QueueWait for a slot, then answer 503 with a Retry-After
// header — saturation is reported, never hidden in an unbounded
// queue). Cache hits bypass the concurrency gate entirely, so a hot
// working set stays fast no matter how slow the cold traffic is. A
// repeated /v1/solve body costs a digest, a cache lookup and a copy:
// the server remembers the cache key of every body it accepted and the
// rendered reply of every result it served twice (memo.go).
//
// With Config.Cluster set, several servers form one logical service:
// a consistent-hash ring over the static peer list assigns every
// (fingerprint, solver) cache key an owner, /v1/solve requests for
// keys owned elsewhere are forwarded one hop to the owner (so the
// whole cluster shares one cache entry and one in-flight solve per
// key), and a request whose owner is down is solved locally, to the
// same bytes. See pkg/steady/cluster and docs/ARCHITECTURE.md.
package server

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jsonscan"
	"repro/pkg/steady"
	"repro/pkg/steady/batch"
	"repro/pkg/steady/cluster"
	"repro/pkg/steady/control"
	"repro/pkg/steady/obs"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/sim"
	"repro/pkg/steady/sim/event"
)

// Config tunes a Server. The zero value selects sensible defaults
// for every field, and so does any value <= 0 in a numeric field.
// The LP-solution cache has batch.DefaultCacheShards shards, and the
// sweep endpoints run GOMAXPROCS workers.
type Config struct {
	// CacheBound caps cached entries; 0 selects
	// batch.DefaultCacheBound.
	CacheBound int
	// MaxNodes and MaxEdges cap accepted platform sizes (the exact
	// simplex is exponential in the worst case); 0 = 64 and 1024.
	MaxNodes int
	MaxEdges int
	// MaxSweepJobs caps the platforms in one sweep; 0 = 1024.
	MaxSweepJobs int
	// SolveTimeout is the deadline of one request's work, and the only
	// bound on its time: an LP solve, or a /v1/simulate's solve, slot
	// wait and simulation together, or one /v1/simsweep cell; 0 = 30s.
	SolveTimeout time.Duration
	// MaxInFlight bounds concurrently running solves and simulations
	// across all requests; 0 = 2 x GOMAXPROCS.
	MaxInFlight int
	// QueueWait bounds how long a request waits for a MaxInFlight
	// slot before the server answers 503 with a Retry-After header;
	// 0 = 5s. Cache hits never wait.
	QueueWait time.Duration
	// MaxBodyBytes caps request bodies; 0 = 8 MiB.
	MaxBodyBytes int64
	// MaxTraceEvents caps the structured event trace a traced
	// /v1/simulate request may return; longer runs truncate the trace
	// and set trace_truncated. 0 = 100000.
	MaxTraceEvents int
	// DisableMetrics turns the observability layer off entirely: no
	// registry is created, GET /metrics answers 404, and request
	// handling records nothing into a registry. /v1/stats still
	// reports its cache and lp sections, which the LP cache counts on
	// its own; its simulations and solvers sections stay empty.
	DisableMetrics bool
	// Cluster, when non-nil, joins this server to a multi-node
	// cluster (see pkg/steady/cluster): /v1/solve requests for keys
	// owned by healthy peers are forwarded to them and /v1/cluster is
	// served. The server takes ownership:
	// Server.Close closes the cluster. The caller decides when to
	// start health probing (cluster.Cluster.Start) — after the
	// listener is open, so that a peer this one probes can probe it
	// back.
	Cluster *cluster.Cluster
	// Control tunes the online scheduling control plane behind
	// /v1/deployments (see pkg/steady/control): epoch length, drift
	// threshold and minimum re-solve interval, deployment and watcher
	// limits. The zero value selects that package's defaults.
	// Control.Solve and Control.Obs are overridden by the server —
	// deployments solve through the shared LP cache and concurrency
	// gate and report into the server's registry; Control.SolveTimeout
	// defaults to the server's SolveTimeout.
	Control control.Config
}

func (c Config) withDefaults() Config {
	if c.CacheBound <= 0 {
		c.CacheBound = batch.DefaultCacheBound
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 64
	}
	if c.MaxEdges <= 0 {
		c.MaxEdges = 1024
	}
	if c.MaxSweepJobs <= 0 {
		c.MaxSweepJobs = 1024
	}
	if c.SolveTimeout <= 0 {
		c.SolveTimeout = 30 * time.Second
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 5 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxTraceEvents <= 0 {
		c.MaxTraceEvents = 100000
	}
	return c
}

// Server is the HTTP solve service. Construct with New; serve it with
// Serve, its own HTTP/1.1 connection loop, or embed its Handler in a
// net/http server. A Server is safe for concurrent use and holds no
// per-request state beyond the shared cache and counters.
type Server struct {
	cfg         Config
	cache       *batch.Cache
	simEngine   *sim.Engine
	sem         chan struct{}
	reg         *obs.Registry
	metrics     *metrics
	simMetrics  *simMetrics
	telemetry   decodePaths
	solveDecode decodePaths
	heads       decodePaths
	cluster     *cluster.Cluster
	manager     *control.Manager
	memo        *solveMemo
	start       time.Time
	mux         *http.ServeMux
	panics      *obs.Counter
	serving     serving
}

// New builds a Server from cfg (zero value = defaults). Every
// solve-shaped endpoint shares one sharded LP-solution cache, so a
// platform solved through one is a cache hit for all of them.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	cache := batch.NewCache(batch.DefaultCacheShards, cfg.CacheBound)
	// One registry serves every layer: the request handlers, the LP
	// cache (and through it pkg/steady/lp), and the simulation engine.
	// DisableMetrics leaves it nil, which every instrument treats as
	// "record nothing" at the cost of a nil check.
	var reg *obs.Registry
	if !cfg.DisableMetrics {
		reg = obs.New()
		cache.SetObs(reg)
	}
	s := &Server{
		cfg:   cfg,
		cache: cache,
		// The server solves and gates simulations itself and never
		// sweeps through the simulation engine.
		simEngine:   sim.New(sim.Config{Obs: reg}),
		sem:         make(chan struct{}, cfg.MaxInFlight),
		reg:         reg,
		metrics:     newMetrics(reg),
		simMetrics:  newSimMetrics(reg),
		telemetry:   newDecodePaths(reg, "telemetry", "Telemetry bodies", "the strict reflective decoder"),
		solveDecode: newDecodePaths(reg, "solve", "Parsed POST /v1/solve bodies", "the strict reflective decoder"),
		heads:       newDecodePaths(reg, "http_head", "HTTP/1.1 request heads the connection loop read,", "net/http's ReadRequest"),
		cluster:     cfg.Cluster,
		memo:        newSolveMemo(cfg.CacheBound, reg),
		start:       time.Now(),
		mux:         http.NewServeMux(),
		panics: reg.Counter("steady_http_panics_total",
			"Handler panics the connection loop recovered (Serve); each closed its connection."),
	}
	if s.cluster != nil {
		// The cluster reports into the server's registry, so
		// steady_cluster_* lands next to everything else.
		s.cluster.SetObs(reg)
	}
	// The control plane solves through the same cache and concurrency
	// gate as every other endpoint, and reports into the same registry.
	ctl := cfg.Control
	ctl.Solve = s.controlSolve
	ctl.Obs = reg
	if ctl.SolveTimeout <= 0 {
		ctl.SolveTimeout = cfg.SolveTimeout
	}
	s.manager = control.NewManager(ctl)
	if reg != nil {
		reg.GaugeFunc("steady_server_uptime_seconds",
			"Seconds since the server was constructed.",
			func() float64 { return time.Since(s.start).Seconds() })
		reg.GaugeFunc("steady_server_solve_slots_inuse",
			"Occupied MaxInFlight solve/simulation slots.",
			func() float64 { return float64(len(s.sem)) })
		// The collector's side of every request, read from runtime/metrics
		// when scraped and never on a request's path: what the requests
		// allocate, and the cycles and CPU that costs the process.
		for _, c := range []struct{ name, help, sample string }{
			{"steady_go_alloc_bytes_total", "Bytes allocated on the heap by the process (runtime/metrics /gc/heap/allocs:bytes).", "/gc/heap/allocs:bytes"},
			{"steady_go_gc_cycles_total", "Completed garbage-collection cycles (runtime/metrics /gc/cycles/total:gc-cycles).", "/gc/cycles/total:gc-cycles"},
			{"steady_go_gc_cpu_seconds_total", "Estimated CPU time spent collecting garbage (runtime/metrics /cpu/classes/gc/total:cpu-seconds).", "/cpu/classes/gc/total:cpu-seconds"},
		} {
			reg.CounterFunc(c.name, c.help, runtimeCounter(c.sample))
		}
	}
	s.mux.HandleFunc("GET /v1/solvers", s.handleSolvers)
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("POST /v1/simsweep", s.handleSimSweep)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/cluster", s.handleCluster)
	s.mux.HandleFunc("POST /v1/deployments", s.handleDeploymentCreate)
	s.mux.HandleFunc("GET /v1/deployments", s.handleDeploymentList)
	s.mux.HandleFunc("GET /v1/deployments/{id}", s.handleDeploymentGet)
	s.mux.HandleFunc("DELETE /v1/deployments/{id}", s.handleDeploymentDelete)
	s.mux.HandleFunc("POST /v1/deployments/{id}/telemetry", s.handleTelemetry)
	s.mux.HandleFunc("GET /v1/deployments/{id}/watch", s.handleWatch)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// runtimeCounter reads the cumulative runtime/metrics value name each
// time it is called.
func runtimeCounter(name string) func() float64 {
	return func() float64 {
		sample := []rtmetrics.Sample{{Name: name}}
		rtmetrics.Read(sample)
		switch v := sample[0].Value; v.Kind() {
		case rtmetrics.KindUint64:
			return float64(v.Uint64())
		case rtmetrics.KindFloat64:
			return v.Float64()
		}
		return 0 // a name this runtime does not know
	}
}

// Cluster returns the cluster this server joined, nil for a
// single-node server.
func (s *Server) Cluster() *cluster.Cluster { return s.cluster }

// Close releases the server's background resources: the control
// plane's epoch loop (evicting its watch subscribers), and the
// cluster's health loop and peer connections. It is safe to call more
// than once.
func (s *Server) Close() {
	s.manager.Close()
	if s.cluster != nil {
		s.cluster.Close()
	}
}

// Handler returns the service's HTTP handler: the route mux, wrapped
// in the RED middleware (requests by endpoint and status, in-flight
// gauge, latency histograms by endpoint) when metrics are enabled.
// Serve runs it on the connection loop; embedding callers mount it in
// a net/http server of their own, and tests call it on a recorder.
func (s *Server) Handler() http.Handler {
	if s.reg == nil {
		return s.mux
	}
	red := &redSeries{
		requests: s.reg.CounterVec("steady_http_requests_total",
			"HTTP requests served, by route pattern and status code.", "endpoint", "code"),
		durations: s.reg.HistogramVec("steady_http_request_duration_seconds",
			"HTTP request wall time, by route pattern.", nil, "endpoint"),
	}
	red.resolved.Store(&map[redKey]redPair{})
	inflight := s.reg.Gauge("steady_http_inflight_requests",
		"HTTP requests currently being served.")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		inflight.Add(1)
		defer inflight.Add(-1) // a panicking handler leaves too
		// The connection loop's writer keeps the status itself; any
		// other is wrapped to capture it.
		var code int
		if lw, ok := w.(*response); ok {
			s.mux.ServeHTTP(lw, r)
			code = cmp.Or(lw.status, http.StatusOK)
		} else {
			sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
			s.mux.ServeHTTP(sw, r)
			code = sw.code
		}
		// ServeMux stamps the matched route pattern onto the request,
		// so the label is the bounded route set ("POST /v1/solve"),
		// never the raw URL. Unmatched requests (404/405) keep an
		// empty pattern.
		endpoint := r.Pattern
		if endpoint == "" {
			endpoint = "unmatched"
		}
		pair := red.get(redKey{endpoint, code})
		pair.requests.Inc()
		pair.duration.Observe(time.Since(start).Seconds())
	})
}

// redSeries resolves the RED middleware's label series once per
// (route, status) instead of once per request: a family lookup builds
// a joined key, takes the family's lock and, for the counter, formats
// the status. The table is bounded by the route set times the statuses
// seen, and read without a lock: a new pair copies it.
type redSeries struct {
	requests  *obs.CounterVec
	durations *obs.HistogramVec

	mu       sync.Mutex // serializes writers of resolved
	resolved atomic.Pointer[map[redKey]redPair]
}

type redKey struct {
	endpoint string
	code     int
}

type redPair struct {
	requests *obs.Counter
	duration *obs.Histogram
}

func (rs *redSeries) get(k redKey) redPair {
	if pair, ok := (*rs.resolved.Load())[k]; ok {
		return pair
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	old := *rs.resolved.Load()
	pair, ok := old[k]
	if !ok {
		pair = redPair{rs.requests.With(k.endpoint, strconv.Itoa(k.code)), rs.durations.With(k.endpoint)}
		next := make(map[redKey]redPair, len(old)+1)
		for key, p := range old {
			next[key] = p
		}
		next[k] = pair
		rs.resolved.Store(&next)
	}
	return pair
}

// Registry returns the server's metrics registry, nil when
// Config.DisableMetrics is set. Embedding callers may register their
// own instruments on it or render it out of band.
func (s *Server) Registry() *obs.Registry { return s.reg }

// statusWriter captures the response status for the RED middleware
// under a writer other than the connection loop's.
// It forwards Flush so the sweep endpoints keep streaming.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(p)
}

func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// Cache returns the server's LP-solution cache (shared by every
// solve-shaped endpoint), mainly for tests and embedding callers.
func (s *Server) Cache() *batch.Cache { return s.cache }

// --- handlers ---------------------------------------------------------

func (s *Server) handleSolvers(w http.ResponseWriter, r *http.Request) {
	resp := SolversResponse{}
	for _, name := range steady.Problems() {
		resp.Problems = append(resp.Problems, steady.Describe(name))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	// The raw body is kept until the reply is out: it is what the memo
	// is keyed by (through its digest), what a clustered server forwards
	// verbatim to the key's owner, and what a cache miss decodes when a
	// remembered body has to be solved again — all on this goroutine,
	// since batch.Cache.Do runs a miss on its caller's. Then its buffer
	// goes back to bodyPool for the next request. Nothing reads it after
	// that: what outlives the request is copied out of it — the spec's
	// strings (scanSolveRequest), the node names (platform.DecodeJSON),
	// every error text (TestSolveBodyIsNotRetained).
	buf := bodyPool.Get().(*[]byte)
	raw, ok := s.readBody(w, r, "read request", *buf)
	defer putBody(buf, raw)
	if !ok {
		return
	}
	digest := sha256.Sum256(raw)
	rec := s.memo.lookup(digest)
	var miss target
	if rec == nil {
		solver, p, key, err := s.parseSolve(raw)
		if err != nil {
			writeErr(w, statusFor(err), err)
			return
		}
		rec = s.memo.remember(digest, key, solver.Name())
		miss = resolved(solver, p)
	} else {
		// A remembered body is decoded only if the cache has since
		// evicted its entry.
		miss = func() (steady.Solver, *platform.Platform, error) {
			solver, p, _, err := s.parseSolve(raw)
			return solver, p, err
		}
	}

	start := time.Now()
	if s.routeSolve(w, r, rec.key, raw) {
		return
	}
	res, hit, err := s.solve(r.Context(), rec.key, rec.solver, miss)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeSolve(w, rec, res, hit, time.Since(start).Microseconds())
}

// parseSolve is the full check of a /v1/solve body, by whichever of its
// two readers takes it: the scanner of the plain spelling when that
// accepts the body outright, otherwise strict JSON and resolve — which
// own the verdict. Every error maps through statusFor (400, or 413 for
// an oversized platform).
func (s *Server) parseSolve(raw []byte) (steady.Solver, *platform.Platform, string, error) {
	if solver, p, key, ok := s.scanSolve(raw); ok {
		s.solveDecode.scan.Inc()
		return solver, p, key, nil
	}
	s.solveDecode.strict.Inc()
	var req SolveRequest
	if err := decodeStrict(raw, &req); err != nil {
		return nil, nil, "", err
	}
	return s.resolve(&req, string(req.Platform))
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if err := req.Scenario.Validate(); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	solver, p, key, err := s.resolve(&req.SolveRequest, string(req.Platform))
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}

	// One deadline covers the request: its solve, its wait for a slot
	// and its simulation. Both simulation substrates honor it (the
	// event simulator via OnlineConfig.Interrupt), mapping to 504.
	start := time.Now()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.SolveTimeout)
	defer cancel()
	var (
		rec   event.Recorder // stays nil untraced: holding a nil *MemoryRecorder, it would not be
		trace *event.MemoryRecorder
		rep   *sim.Report
	)
	if req.Trace {
		trace = &event.MemoryRecorder{Limit: s.cfg.MaxTraceEvents}
		rec = trace
	}
	res, hit, err := s.solve(ctx, key, solver.Name(), resolved(solver, p))
	if err == nil {
		rep, err = s.simulate(ctx, res, req.Scenario, rec)
	}
	if err != nil {
		s.simMetrics.observe("", true, false)
		writeErr(w, statusFor(err), err)
		return
	}
	s.simMetrics.observe(rep.Kind, false, false)
	resp := SimulateResponse{
		Report:        rep,
		CacheHit:      hit,
		ElapsedMicros: time.Since(start).Microseconds(),
	}
	if trace != nil {
		resp.Trace = trace.Records
		resp.TraceTruncated = trace.Dropped > 0
	}
	writeJSON(w, http.StatusOK, resp)
}

// simulate runs one simulation, bounded only by ctx's deadline, under a
// MaxInFlight slot of its own, so cache-hit traffic cannot fan out into
// unbounded concurrent simulations. rec, when non-nil, takes the trace.
func (s *Server) simulate(ctx context.Context, res *steady.Result, sc sim.Scenario, rec event.Recorder) (*sim.Report, error) {
	if err := s.acquire(ctx); err != nil {
		return nil, err
	}
	defer s.release()
	return s.simEngine.RunRecorded(ctx, res, sc, rec)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics renders the registry in the Prometheus text
// exposition format. With metrics disabled there is nothing to
// render and the endpoint does not exist: 404, zero overhead.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.reg == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	cs := s.cache.Stats()
	writeJSON(w, http.StatusOK, StatsResponse{
		UptimeSeconds:  time.Since(s.start).Seconds(),
		InFlightSolves: cs.InFlight,
		Cache:          cacheStatsJSON(cs),
		LP:             lpStatsJSON(cs),
		Simulations:    s.simMetrics.snapshot(),
		Solvers:        s.metrics.snapshot(),
	})
}

// --- plumbing ---------------------------------------------------------

// decodeStrict is the one definition of an acceptable JSON request
// body: a single value that fits dst with no unknown field (schema
// typos fail loudly), and nothing after it but whitespace — a second
// value is a second request the client believes it sent, not something
// to drop silently. Every error is a 400.
func decodeStrict(raw []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	for _, c := range raw[dec.InputOffset():] {
		if !jsonscan.IsSpace(c) {
			return errors.New("decode request: unexpected data after the JSON value")
		}
	}
	return nil
}

// decodeBody reads a request body under the size limit and decodes it
// strictly into dst. It writes the error response itself and reports
// success.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	raw, ok := s.readBody(w, r, "decode request", nil)
	if !ok {
		return false
	}
	if err := decodeStrict(raw, dst); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

// maxBodyPresize bounds what readBody allocates on the word of a
// Content-Length header alone, and the buffers bodyPool keeps.
const maxBodyPresize = 64 << 10

// bodyPool recycles the request buffers of /v1/solve and of telemetry
// batches: a cold miss's body is ≈ 4.4 KB at n=48, a tenth of what the
// miss would otherwise allocate, and a telemetry batch for every node
// and edge of an n=64 deployment ≈ 6 KB.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// putBody hands a request buffer back to bodyPool: raw, the body read
// into it (nil when the read failed), unless it grew past
// maxBodyPresize.
func putBody(buf *[]byte, raw []byte) {
	if raw != nil {
		*buf = raw[:0]
	}
	if cap(*buf) <= maxBodyPresize+1 {
		bodyPool.Put(buf)
	}
}

// readBody slurps a request body under the size limit, into buf when
// that has the room; a failure is answered here (413 past the limit,
// else 400) with op naming what the endpoint was doing. It is
// io.ReadAll with a first buffer sized from the declared length — one
// allocation at most, with a byte to spare so that the read that finds
// EOF does not grow it. The length is only a hint: never trusted past
// maxBodyPresize up front, and a longer body grows the buffer like one
// of unknown length.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, op string, buf []byte) ([]byte, bool) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	size := int64(bytes.MinRead) // unknown length: io.ReadAll's first buffer
	if r.ContentLength >= 0 {
		size = min(r.ContentLength, maxBodyPresize) + 1
	}
	raw := buf[:0]
	if int64(cap(raw)) < size {
		raw = make([]byte, 0, size)
	}
	var err error
	for err == nil {
		if len(raw) == cap(raw) {
			raw = append(raw, 0)[:len(raw)]
		}
		var n int
		n, err = body.Read(raw[len(raw):cap(raw)])
		raw = raw[:len(raw)+n]
	}
	if err != io.EOF {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeErr(w, status, fmt.Errorf("%s: %w", op, err))
		return nil, false
	}
	return raw, true
}

// statusFor maps a solve-path error to an HTTP status: size limits
// to 413, the server-side solve timeout to 504, client cancellation
// to 499 (nginx convention; the client is gone anyway). The facade's
// typed request errors — steady.ErrUnknownProblem, steady.ErrBadSpec,
// steady.ErrNoSuchNode, platform.ErrInvalid — all mean the request
// was wrong, so they map to 400, as does everything else (infeasible
// instances, malformed JSON): the solver itself cannot fail on a
// well-formed request.
func statusFor(err error) int {
	switch {
	case errors.As(err, &errTooLarge{}):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, errSaturated):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499
	case errors.Is(err, control.ErrUnknownDeployment):
		return http.StatusNotFound
	case errors.Is(err, control.ErrTooManyDeployments),
		errors.Is(err, control.ErrTooManyWatchers):
		return http.StatusTooManyRequests
	case errors.Is(err, control.ErrBadDeployment),
		errors.Is(err, control.ErrBadObservation),
		errors.Is(err, control.ErrBadMeasurement):
		return http.StatusBadRequest
	case errors.Is(err, steady.ErrUnknownProblem),
		errors.Is(err, steady.ErrBadSpec),
		errors.Is(err, steady.ErrNoSuchNode),
		errors.Is(err, platform.ErrInvalid):
		return http.StatusBadRequest
	default:
		return http.StatusBadRequest
	}
}

// encBuf pairs a response buffer with a JSON encoder bound to it, so
// the hot path reuses both: the per-response json.NewEncoder and the
// backing array were the largest steady-state allocations in
// BenchmarkServerSolveHot.
type encBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encPool = sync.Pool{New: func() any {
	e := &encBuf{}
	e.enc = json.NewEncoder(&e.buf)
	e.enc.SetIndent("", "  ")
	return e
}}

// maxPooledEncBuf keeps pathological responses (a traced simulation
// can be tens of MB) from pinning their buffers in the pool forever.
const maxPooledEncBuf = 1 << 20

func writeJSON(w http.ResponseWriter, status int, v any) {
	e := encPool.Get().(*encBuf)
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		encodeFailed(w)
		return
	}
	e.send(w, status)
}

// errEncodeFailed is the 500 of a response that would not encode.
var errEncodeFailed = errors.New("encoding response failed")

// encodeFailed answers 500 for a response that would not encode, as
// JSON like every other error reply. The caller drops its encBuf rather
// than pooling it: a json.Encoder remembers its first error and would
// poison every later response.
func encodeFailed(w http.ResponseWriter) {
	writeErr(w, http.StatusInternalServerError, errEncodeFailed)
}

// send writes the buffered body as a length-framed JSON response and
// returns e to the pool.
func (e *encBuf) send(w http.ResponseWriter, status int) {
	setHeader(w, "Content-Type", "application/json")
	setHeader(w, "Content-Length", lengthValue(w, e.buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(e.buf.Bytes())
	if e.buf.Cap() <= maxPooledEncBuf {
		encPool.Put(e)
	}
}

func writeErr(w http.ResponseWriter, status int, err error) {
	if status == http.StatusServiceUnavailable {
		// Backpressure contract: tell well-behaved clients when to come
		// back instead of letting them busy-retry into the gate.
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}
