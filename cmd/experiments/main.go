// Command experiments regenerates the paper's figures and claims (the
// internal/experiments suite), and runs batch sweeps over random
// platform families through pkg/steady/server's /v1/sweep.
//
// Usage:
//
//	experiments            # run everything
//	experiments E3 E5      # run selected experiments
//	experiments -list      # list experiment ids
//	experiments -batch -n 16 -format csv              # batch sweep
//	experiments -batch -metrics-dump                  # ... and dump the server's metrics to stderr
//	experiments -batch -remote http://localhost:8080  # sweep via steadyd
//	experiments -sim                                  # simulate every solver's schedule
//	experiments -sim -metrics-dump                    # ... and dump metrics to stderr
//
// A sweep is one POST /v1/sweep of the generator parameters: without
// -remote it is served in process by a server.New, which runs
// GOMAXPROCS workers; with -remote it is sent to a running steadyd
// instance. Either way its streamed records are copied to stdout, so
// local and remote runs produce the same platforms and the same
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
	"strings"

	"repro/internal/experiments"
	"repro/pkg/steady"
	"repro/pkg/steady/obs"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/server"
	"repro/pkg/steady/sim"
)

// options is a parsed command line.
type options struct {
	list, batch, sim, metricsDump bool
	n                             int
	seed                          int64
	format, problem, remote       string
	ids                           []string
}

// batchOnly names the flags only a -batch run reads, in the order they
// are checked.
var batchOnly = []string{"n", "seed", "format", "problem"}

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
	if o.sim {
		var reg *obs.Registry
		if o.metricsDump {
			reg = obs.New()
		}
		if err := runSim(os.Stdout, reg); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		dumpMetrics(os.Stderr, reg)
		return
	}
	if o.batch {
		if err := runBatch(os.Stdout, os.Stderr, o); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
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
func dumpMetrics(stderr io.Writer, reg *obs.Registry) {
	if reg == nil {
		return
	}
	fmt.Fprintln(stderr, "# --- metrics (Prometheus text format) ---")
	_ = reg.WritePrometheus(stderr)
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

// runBatch sweeps the chosen problem over server.Generator's random
// platform family as one POST /v1/sweep: to the steadyd at o.remote,
// or, without one, to a server.New in process, whose Handler streams
// the records to stdout as they complete. Both build the same
// platforms and print the same records. Platform sizes cycle over a
// small set, so the sweep contains duplicate platforms and exercises
// the cache. A local run with -metrics-dump then prints that server's
// registry to stderr.
func runBatch(stdout, stderr io.Writer, o *options) error {
	wireFormat := o.format
	if o.format == "json" {
		wireFormat = "ndjson" // the service name for JSON Lines
	} else if o.format != "csv" {
		return fmt.Errorf("unknown format %q (csv|json)", o.format)
	}
	body, err := json.Marshal(server.SweepRequest{
		Problem:   o.problem,
		Generator: &server.Generator{Count: o.n, Seed: o.seed},
		Format:    wireFormat,
	})
	if err != nil {
		return err
	}
	if o.remote != "" {
		return remoteSweep(stdout, stderr, o.remote, o.n, body)
	}

	srv := server.New(server.Config{MaxSweepJobs: o.n, DisableMetrics: !o.metricsDump})
	defer srv.Close()
	req, err := http.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return err
	}
	reply := &streamReply{header: http.Header{}, out: stdout}
	srv.Handler().ServeHTTP(reply, req)
	if reply.status != http.StatusOK {
		return refused("sweep", fmt.Sprintf("%d %s", reply.status, http.StatusText(reply.status)), reply.refusal.Bytes())
	}
	if reply.err != nil {
		return fmt.Errorf("sweep: write records: %w", reply.err)
	}
	cs := srv.Cache().Stats()
	fmt.Fprintf(stderr, "batch: %d jobs, %d LP solves, %d cache hits\n", o.n, cs.Solves, cs.Hits)
	fmt.Fprintf(stderr, "batch: %d float and %d exact simplex pivots\n", cs.FloatPivots, cs.Pivots)
	dumpMetrics(stderr, srv.Registry())
	return nil
}

// streamReply is the ResponseWriter of an in-process sweep: a 200
// reply's records go to out as the handler writes them, any other
// reply's body is kept as the refusal. err is out's first write error,
// which also stops the sweep.
type streamReply struct {
	header  http.Header
	status  int
	out     io.Writer
	err     error
	refusal bytes.Buffer
}

func (w *streamReply) Header() http.Header { return w.header }

func (w *streamReply) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *streamReply) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	if w.status != http.StatusOK {
		return w.refusal.Write(p)
	}
	n, err := w.out.Write(p)
	if w.err == nil {
		w.err = err
	}
	return n, err
}

// refused is the error of a sweep the server answered with status: the
// message of its error reply, or the reply itself.
func refused(what, status string, body []byte) error {
	var e server.ErrorResponse
	if json.Unmarshal(body, &e) != nil || e.Error == "" {
		e.Error = strings.TrimSpace(string(body))
	}
	return fmt.Errorf("%s: %s: %s", what, status, e.Error)
}

// remoteSweep POSTs a /v1/sweep body to the steadyd at base and copies
// the streamed records to stdout as the server produces them.
func remoteSweep(stdout, stderr io.Writer, base string, n int, body []byte) error {
	resp, err := http.Post(strings.TrimRight(base, "/")+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("remote sweep: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return refused("remote sweep", resp.Status, msg)
	}
	if _, err := io.Copy(stdout, resp.Body); err != nil {
		return fmt.Errorf("remote sweep: stream: %w", err)
	}
	fmt.Fprintf(stderr, "batch: %d jobs swept remotely via %s\n", n, base)
	return nil
}
