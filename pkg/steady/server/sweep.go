package server

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"repro/pkg/steady"
	"repro/pkg/steady/batch"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/sim"
)

// This file is the sweep endpoints: /v1/sweep solves a platform family
// and /v1/simsweep simulates it under a scenario grid. Both validate
// the request into batch jobs, run them on a batch.Pool through the
// pipeline's solve, and stream one record per job (or cell) through
// streamSweep, the one record writer.

// sweepRecord is one /v1/sweep record. Throughput is the exact
// rational as a string — results are exact everywhere; Value is the
// nearest float64 for spreadsheet consumers.
type sweepRecord struct {
	Job      string  `json:"job,omitempty"`
	Solver   string  `json:"solver"`
	Platform string  `json:"platform,omitempty"` // canonical fingerprint
	Tput     string  `json:"throughput,omitempty"`
	Value    float64 `json:"value,omitempty"`
	CacheHit bool    `json:"cache_hit"`
	MicroSec int64   `json:"elapsed_us"`
	Err      string  `json:"error,omitempty"`
}

var sweepHeader = []string{"job", "solver", "platform", "throughput", "value", "cache_hit", "elapsed_us", "error"}

func (r *sweepRecord) row() []string {
	return []string{
		r.Job, r.Solver, r.Platform, r.Tput,
		strconv.FormatFloat(r.Value, 'g', -1, 64),
		strconv.FormatBool(r.CacheHit),
		strconv.FormatInt(r.MicroSec, 10),
		r.Err,
	}
}

// cellRecord is one /v1/simsweep record. The report keeps certified
// quantities as exact-rational strings.
type cellRecord struct {
	Cell     string      `json:"cell,omitempty"`
	Report   *sim.Report `json:"report,omitempty"`
	CacheHit bool        `json:"cache_hit"`
	MicroSec int64       `json:"elapsed_us"`
	Err      string      `json:"error,omitempty"`
}

var cellHeader = []string{
	"cell", "solver", "scenario", "kind", "certified", "achieved",
	"ratio", "steady_after", "periods", "makespan", "done",
	"cache_hit", "elapsed_us", "error",
}

func (r *cellRecord) row() []string {
	row := make([]string, len(cellHeader))
	row[0] = r.Cell
	if rep := r.Report; rep != nil {
		row[1] = rep.Solver
		row[2] = rep.Scenario
		row[3] = rep.Kind
		row[4] = rep.Certified
		row[5] = rep.Achieved
		row[6] = strconv.FormatFloat(rep.RatioValue, 'g', -1, 64)
		row[7] = strconv.FormatInt(rep.SteadyAfter, 10)
		row[8] = strconv.FormatInt(rep.Periods, 10)
		row[9] = strconv.FormatFloat(rep.Makespan, 'g', -1, 64)
		row[10] = strconv.Itoa(rep.Done)
	}
	row[11] = strconv.FormatBool(r.CacheHit)
	row[12] = strconv.FormatInt(r.MicroSec, 10)
	row[13] = r.Err
	return row
}

// errText is a record's error field: empty when err is nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// record is one line of a sweep stream: its JSON value, or row under
// the stream's CSV header.
type record interface{ row() []string }

// streamSweep commits a sweep to a 200 response in format ("ndjson",
// the default, or "csv" under header; anything else answers 400) and
// runs its n jobs on a batch.Pool of GOMAXPROCS workers, writing job
// i's record, run(ctx, i) or skipped(i, err) for a job the pool never
// ran, as it completes. Per-record errors travel in the records, and
// each record is flushed so clients see results as they complete. A
// write error means the client went away: the pool stops feeding and
// in-flight solves finish into the shared cache.
func streamSweep(w http.ResponseWriter, r *http.Request, format string, header []string, n int,
	run func(ctx context.Context, i int) record, skipped func(i int, err error) record) {
	out := &flushWriter{w: w}
	var write func(record) error
	switch format {
	case "", "ndjson":
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(out)
		write = func(rec record) error { return enc.Encode(rec) }
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		cw := csv.NewWriter(out)
		_ = cw.Write(header) // buffered: it goes out with the first record
		write = func(rec record) error {
			if err := cw.Write(rec.row()); err != nil {
				return err
			}
			cw.Flush()
			return cw.Error()
		}
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown format %q (ndjson|csv)", format))
		return
	}
	w.WriteHeader(http.StatusOK)
	_ = batch.Pool(r.Context(), runtime.GOMAXPROCS(0), n, run, skipped,
		func(_ int, rec record) error { return write(rec) })
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	jobs, err := s.sweepJobs(&req)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	keys := jobKeys(jobs)
	streamSweep(w, r, req.Format, sweepHeader, len(jobs),
		func(ctx context.Context, i int) record { return s.sweepJob(ctx, jobs[i], keys[i]) },
		func(i int, err error) record {
			return &sweepRecord{Job: jobs[i].ID, Solver: jobs[i].Solver.Name(), Err: err.Error()}
		})
}

// sweepJob solves one /v1/sweep job, whose cache key is key, through
// the pipeline's solve, as /v1/solve would; its record's time runs
// from pickup.
func (s *Server) sweepJob(ctx context.Context, job batch.Job, key string) *sweepRecord {
	start := time.Now()
	res, hit, err := s.solve(ctx, key, job.Solver.Name(), resolved(job.Solver, job.Platform))
	rec := &sweepRecord{Job: job.ID, Solver: job.Solver.Name(), CacheHit: hit, Err: errText(err)}
	if res != nil {
		rec.Platform = res.Fingerprint
		rec.Tput = res.Throughput.String()
		rec.Value = res.ThroughputFloat()
	}
	rec.MicroSec = time.Since(start).Microseconds()
	return rec
}

// jobKeys returns each sweep job's cache key, fingerprinting each
// distinct platform once: a generator's jobs share one platform per
// size.
func jobKeys(jobs []batch.Job) []string {
	fps := map[*platform.Platform]string{}
	keys := make([]string, len(jobs))
	for i, job := range jobs {
		fp, ok := fps[job.Platform]
		if !ok {
			fp = steady.Fingerprint(job.Platform)
			fps[job.Platform] = fp
		}
		keys[i] = batch.Key(fp, job.Solver.Name())
	}
	return keys
}

// simCell solves job, whose cache key is key, and simulates sc,
// /v1/simsweep's cell id, under the deadline of a request: the solve
// goes through the pipeline's solve, as /v1/simulate's does, and the
// simulation holds a slot like /v1/simulate's.
func (s *Server) simCell(ctx context.Context, id, key string, job batch.Job, sc sim.Scenario) *cellRecord {
	start := time.Now()
	ctx, cancel := context.WithTimeout(ctx, s.cfg.SolveTimeout)
	defer cancel()
	var rep *sim.Report
	res, hit, err := s.solve(ctx, key, job.Solver.Name(), resolved(job.Solver, job.Platform))
	if err == nil {
		rep, err = s.simulate(ctx, res, sc, nil)
	}
	return s.cell(id, rep, hit, err, time.Since(start))
}

// cell is the record of one /v1/simsweep cell, counted in the
// simulation stats as it ends.
func (s *Server) cell(id string, rep *sim.Report, hit bool, err error, elapsed time.Duration) *cellRecord {
	kind := ""
	if rep != nil {
		kind = rep.Kind
	}
	s.simMetrics.observe(kind, err != nil, true)
	return &cellRecord{Cell: id, Report: rep, CacheHit: hit, MicroSec: elapsed.Microseconds(), Err: errText(err)}
}

func (s *Server) handleSimSweep(w http.ResponseWriter, r *http.Request) {
	var req SimSweepRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	scenarios := req.Scenarios
	if len(scenarios) == 0 {
		scenarios = []sim.Scenario{{}}
	}
	labels := map[string]int{}
	for i := range scenarios {
		if err := scenarios[i].Validate(); err != nil {
			writeErr(w, statusFor(err), fmt.Errorf("scenario %d: %w", i, err))
			return
		}
		// Cell ids are jobID/label; colliding labels would make the
		// streamed records indistinguishable.
		label := scenarioID(scenarios[i], i)
		if prev, dup := labels[label]; dup {
			writeErr(w, http.StatusBadRequest,
				fmt.Errorf("scenarios %d and %d share the label %q", prev, i, label))
			return
		}
		labels[label] = i
	}
	jobs, err := s.sweepJobs(&req.SweepRequest)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	if n := len(jobs) * len(scenarios); n > s.cfg.MaxSweepJobs {
		err := errTooLarge{fmt.Sprintf("sweep has %d cells (%d platforms x %d scenarios), limit %d",
			n, len(jobs), len(scenarios), s.cfg.MaxSweepJobs)}
		writeErr(w, statusFor(err), err)
		return
	}
	// Cell i simulates scenario i%n on platform i/n, whose key is
	// computed once for its n cells. Each cell has the deadline of a
	// request of its own, not a pooled one.
	n := len(scenarios)
	keys := jobKeys(jobs)
	cellID := func(i int) string { return fmt.Sprintf("%s/%s", jobs[i/n].ID, scenarioID(scenarios[i%n], i%n)) }
	streamSweep(w, r, req.Format, cellHeader, len(jobs)*n,
		func(ctx context.Context, i int) record {
			return s.simCell(ctx, cellID(i), keys[i/n], jobs[i/n], scenarios[i%n])
		},
		func(i int, err error) record { return s.cell(cellID(i), nil, false, err, 0) })
}

// scenarioID labels a scenario inside a sweep cell id.
func scenarioID(sc sim.Scenario, i int) string {
	if sc.Name != "" {
		return sc.Name
	}
	return fmt.Sprintf("s%02d", i)
}

// sweepJobs expands a sweep request into batch jobs — at least one,
// or an error — enforcing the sweep and platform size limits.
func (s *Server) sweepJobs(req *SweepRequest) ([]batch.Job, error) {
	solver, err := newSolver(req.spec())
	if err != nil {
		return nil, err
	}
	if (req.Generator == nil) == (len(req.Platforms) == 0) {
		return nil, fmt.Errorf("sweep needs exactly one of generator or platforms")
	}
	if g := req.Generator; g != nil {
		if g.Count > s.cfg.MaxSweepJobs {
			return nil, errTooLarge{fmt.Sprintf("sweep has %d platforms, limit %d", g.Count, s.cfg.MaxSweepJobs)}
		}
		for _, n := range g.sizes() {
			if n > s.cfg.MaxNodes {
				return nil, errTooLarge{fmt.Sprintf("generator size %d outside [2, %d]", n, s.cfg.MaxNodes)}
			}
		}
		return g.Jobs(solver)
	}
	if len(req.Platforms) > s.cfg.MaxSweepJobs {
		return nil, errTooLarge{fmt.Sprintf("sweep has %d platforms, limit %d", len(req.Platforms), s.cfg.MaxSweepJobs)}
	}
	jobs := make([]batch.Job, len(req.Platforms))
	for i, raw := range req.Platforms {
		p, err := decodePlatform(string(raw), s.cfg.MaxNodes, s.cfg.MaxEdges)
		if err != nil {
			return nil, fmt.Errorf("platform %d: %w", i, err)
		}
		jobs[i] = batch.Job{ID: fmt.Sprintf("p%02d", i), Platform: p, Solver: solver}
	}
	return jobs, nil
}

// flushWriter flushes the HTTP response after every write, so sweep
// records reach the client as they complete rather than when the
// response buffer fills.
type flushWriter struct{ w http.ResponseWriter }

func (f *flushWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	if fl, ok := f.w.(http.Flusher); ok {
		fl.Flush()
	}
	return n, err
}
