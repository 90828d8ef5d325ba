// Command experiments regenerates the paper's figures and claims (the
// internal/experiments suite), and runs concurrent batch sweeps over
// random platform families with pkg/steady/batch.
//
// Usage:
//
//	experiments            # run everything
//	experiments E3 E5      # run selected experiments
//	experiments -list      # list experiment ids
//	experiments -batch -n 16 -workers 8 -format csv   # batch sweep
//	experiments -batch -remote http://localhost:8080  # sweep via steadyd
//	experiments -sim                                  # simulate every solver's schedule
//	experiments -sim -metrics-dump                    # ... and dump metrics to stderr
//
// With -remote, the sweep is not solved in-process: the same
// generator parameters are POSTed to a running steadyd instance's
// /v1/sweep endpoint and its streamed records are copied to stdout,
// so local and remote runs produce the same platforms and the same
// exact-rational results.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/pkg/steady"
	"repro/pkg/steady/batch"
	"repro/pkg/steady/obs"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/server"
	"repro/pkg/steady/sim"
)

// options is a parsed command line.
type options struct {
	list, batch, sim, metricsDump bool
	n, workers                    int
	seed                          int64
	format, problem, remote       string
	ids                           []string
}

// batchOnly names the flags only a -batch run reads, in the order they
// are checked.
var batchOnly = []string{"n", "workers", "seed", "format", "problem"}

// parseArgs reads the command line, writing any complaint to stderr. A
// flag or an experiment id the chosen mode would not read is refused,
// not dropped: a run that ignored it would print the same output as if
// it had never been given.
func parseArgs(args []string, stderr io.Writer) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.BoolVar(&o.list, "list", false, "list experiment ids and exit")
	fs.BoolVar(&o.batch, "batch", false, "run a concurrent batch sweep instead of the experiment suite")
	fs.IntVar(&o.n, "n", 16, "batch: number of platforms in the sweep")
	fs.IntVar(&o.workers, "workers", 0, "batch: worker-pool size (0 = GOMAXPROCS)")
	fs.Int64Var(&o.seed, "seed", 1, "batch: random platform seed")
	fs.StringVar(&o.format, "format", "csv", "batch: output format, csv|json")
	fs.StringVar(&o.problem, "problem", "masterslave", "batch: problem to sweep")
	fs.StringVar(&o.remote, "remote", "", "batch: base URL of a steadyd instance to sweep against (e.g. http://localhost:8080)")
	fs.BoolVar(&o.sim, "sim", false, "simulate every registered solver's reconstructed schedule and report achieved vs certified throughput")
	fs.BoolVar(&o.metricsDump, "metrics-dump", false, "after -batch or -sim, dump the run's metrics (Prometheus text format) to stderr")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	o.ids = fs.Args()
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := o.conflict(set); err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return nil, err
	}
	return o, nil
}

// conflict reports the first flag of set, or experiment id, that the
// mode o selects would not read.
func (o *options) conflict(set map[string]bool) error {
	switch {
	case o.sim && o.batch:
		return errors.New("-sim and -batch are exclusive")
	case o.list && (o.batch || o.sim):
		return errors.New("-list does not combine with -batch or -sim")
	case len(o.ids) > 0 && (o.batch || o.sim):
		return fmt.Errorf("experiment ids %v do not combine with -batch or -sim", o.ids)
	case o.remote != "" && !o.batch:
		return errors.New("-remote requires -batch")
	// -metrics-dump observes in-process runs; a remote sweep's metrics
	// live on the server (GET /metrics), and the experiment suite runs
	// through the plain facade.
	case o.metricsDump && (o.remote != "" || !o.batch && !o.sim):
		return errors.New("-metrics-dump requires a local -batch or -sim run")
	case set["workers"] && o.remote != "":
		return errors.New("-workers sizes a local -batch run's pool, not a -remote sweep")
	}
	if !o.batch {
		for _, name := range batchOnly {
			if set[name] {
				return fmt.Errorf("-%s requires -batch", name)
			}
		}
	}
	return nil
}

func main() {
	o, err := parseArgs(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2)
	}
	var reg *obs.Registry
	if o.metricsDump {
		reg = obs.New()
	}
	if o.sim {
		if err := runSim(os.Stdout, reg); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		dumpMetrics(reg)
		return
	}
	if o.batch {
		if o.remote != "" {
			err = runRemoteBatch(o.remote, o.n, o.seed, o.format, o.problem)
		} else {
			err = runBatch(o.n, o.workers, o.seed, o.format, o.problem, reg)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		dumpMetrics(reg)
		return
	}

	suite := experiments.Registry()
	if o.list {
		for _, e := range suite {
			fmt.Printf("%-5s %s\n", e.ID, e.Desc)
		}
		return
	}
	want := map[string]bool{}
	for _, a := range o.ids {
		want[a] = true
	}
	ran := 0
	for _, e := range suite {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		fmt.Printf("=== %s: %s ===\n", e.ID, e.Desc)
		if err := e.Run(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Println()
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matched %v (try -list)\n", o.ids)
		os.Exit(2)
	}
}

// dumpMetrics renders reg to stderr after a -metrics-dump run; the
// stdout stream (CSV/JSON records, experiment tables) stays clean.
func dumpMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "# --- metrics (Prometheus text format) ---")
	_ = reg.WritePrometheus(os.Stderr)
}

// runSim replays every registered solver's schedule on its sample
// platform (the §4.2 asymptotic-optimality demonstration, generalized
// beyond master-slave), then runs two dynamic scenarios — a mid-run
// host slowdown with and without §5.5 adaptive re-solving — to show
// the dynamic machinery from the same entry point. Each row is its own
// (platform, spec) pair, so it is solved and simulated in turn.
func runSim(w io.Writer, reg *obs.Registry) error {
	ctx := context.Background()
	fig1 := platform.Figure1()
	fig2 := platform.Figure2()
	rows := []struct {
		p    *platform.Platform
		spec steady.Spec
	}{
		{fig1, steady.Spec{Problem: "masterslave", Root: "P1"}},
		{fig1, steady.Spec{Problem: "scatter", Root: "P1", Targets: []string{"P4", "P6"}}},
		{fig2, steady.Spec{Problem: "multicast-sum", Root: "P0", Targets: []string{"P5", "P6"}}},
		{fig2, steady.Spec{Problem: "multicast-trees", Root: "P0", Targets: []string{"P5", "P6"}}},
		{fig2, steady.Spec{Problem: "multicast", Root: "P0", Targets: []string{"P5", "P6"}}},
		{fig2, steady.Spec{Problem: "broadcast", Root: "P0"}},
		{fig1, steady.Spec{Problem: "reduce", Root: "P1"}},
	}
	eng := sim.New(sim.Config{Obs: reg})
	solve := func(p *platform.Platform, spec steady.Spec) (*steady.Result, error) {
		solver, err := steady.New(spec)
		if err != nil {
			return nil, err
		}
		return solver.Solve(ctx, p)
	}
	fmt.Fprintf(w, "Replaying reconstructed schedules (certified vs simulated):\n")
	fmt.Fprintf(w, "  %-16s %-10s %-10s %-8s %s\n", "solver", "certified", "achieved", "ratio", "steady-after")
	for _, row := range rows {
		res, err := solve(row.p, row.spec)
		if err != nil {
			return fmt.Errorf("%s: %w", row.spec.Problem, err)
		}
		r, err := eng.Run(ctx, res, sim.Scenario{})
		if err != nil {
			return fmt.Errorf("%s: %w", row.spec.Problem, err)
		}
		note := ""
		if r.Derived != "" {
			note = " (via " + r.Derived + ")"
		}
		// A schedule rate below the certified bound is a genuine gap
		// (§4.3); a ratio below 1 alone is just the startup transient.
		if r.ScheduleThroughput != "" && r.ScheduleThroughput != r.Certified {
			note += " <- bound gap"
		}
		fmt.Fprintf(w, "  %-16s %-10s %-10s %-8.4f %d periods%s\n",
			row.spec.Problem, r.Certified, r.Achieved, r.RatioValue, r.SteadyAfter, note)
	}

	fmt.Fprintf(w, "\nDynamic scenario: P2 and P4 run 3x slower during [50, 400):\n")
	res, err := solve(fig1, steady.Spec{Problem: "masterslave", Root: "P1"})
	if err != nil {
		return err
	}
	for _, adaptive := range []bool{false, true} {
		sc := sim.Scenario{
			Name:  "slowdown",
			Tasks: 2000,
			Slowdowns: []sim.Slowdown{
				{Node: "P2", Factor: 3, From: 50, Until: 400},
				{Node: "P4", Factor: 3, From: 50, Until: 400},
			},
			Adaptive:    adaptive,
			EpochLength: 50,
		}
		rep, err := eng.Run(ctx, res, sc)
		if err != nil {
			return err
		}
		label := "fixed LP quotas  "
		if adaptive {
			label = "adaptive re-solve"
		}
		fmt.Fprintf(w, "  %s: %d tasks in %.1f time units (%.4f/unit, %.2fx certified, %d re-solves)\n",
			label, rep.Done, rep.Makespan, rep.AchievedValue, rep.RatioValue, rep.Resolves)
	}
	return nil
}

// runBatch sweeps the chosen problem over the random platform family
// of server.Generator — the one a -remote run posts — solving it on a
// batch.Pool through one batch.Cache and streaming records to stdout as
// they complete. Platform sizes cycle over a small set, so the sweep
// contains duplicate platforms and exercises the cache.
func runBatch(n, workers int, seed int64, format, problem string, reg *obs.Registry) error {
	solver, err := steady.New(steady.Spec{Problem: problem})
	if err != nil {
		return err
	}
	gen := server.Generator{Count: n, Seed: seed}
	jobs, err := gen.Jobs(solver)
	if err != nil {
		return err
	}

	var sink batch.Sink
	switch format {
	case "csv":
		sink = batch.CSVSink(os.Stdout)
	case "json":
		sink = batch.JSONSink(os.Stdout)
	default:
		return fmt.Errorf("unknown format %q (csv|json)", format)
	}

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cache := batch.NewCache(0, 0)
	cache.SetObs(reg)
	err = batch.Pool(context.Background(), workers, len(jobs),
		func(ctx context.Context, i int) batch.Outcome {
			job := jobs[i]
			start := time.Now()
			o := batch.Outcome{JobID: job.ID, Solver: solver.Name(), Key: batch.KeyFor(job.Platform, solver)}
			o.Result, o.Err, o.CacheHit = cache.DoSolve(ctx, o.Key, o.Solver, func(ctx context.Context, opts ...steady.SolveOption) (*steady.Result, error) {
				return solver.Solve(ctx, job.Platform, opts...)
			})
			o.Elapsed = time.Since(start)
			return o
		},
		func(i int, err error) batch.Outcome {
			return batch.Outcome{JobID: jobs[i].ID, Solver: solver.Name(), Err: err}
		},
		func(_ int, o batch.Outcome) error { return sink(o) })
	if err != nil {
		return err
	}
	cs := cache.Stats()
	fmt.Fprintf(os.Stderr, "batch: %d jobs, %d LP solves, %d cache hits, %d workers\n",
		len(jobs), cs.Solves, cs.Hits, workers)
	fmt.Fprintf(os.Stderr, "batch: %d float and %d exact simplex pivots\n",
		cs.FloatPivots, cs.Pivots)
	return nil
}

// runRemoteBatch drives a steadyd instance instead of solving
// in-process: it POSTs the sweep's generator parameters to /v1/sweep
// and copies the streamed records to stdout as the server produces
// them. Both build the family with server.Generator.Jobs, so the
// records cover the same platforms.
func runRemoteBatch(base string, n int, seed int64, format, problem string) error {
	wireFormat := format
	if format == "json" {
		wireFormat = "ndjson" // the service name for JSON Lines
	} else if format != "csv" {
		return fmt.Errorf("unknown format %q (csv|json)", format)
	}
	req := server.SweepRequest{
		Problem:   problem,
		Generator: &server.Generator{Count: n, Seed: seed},
		Format:    wireFormat,
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := http.Post(strings.TrimRight(base, "/")+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("remote sweep: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("remote sweep: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	if _, err := io.Copy(os.Stdout, resp.Body); err != nil {
		return fmt.Errorf("remote sweep: stream: %w", err)
	}
	fmt.Fprintf(os.Stderr, "batch: %d jobs swept remotely via %s\n", n, base)
	return nil
}
