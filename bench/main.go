// Command bench is the repository's performance ruler: it builds
// ./cmd/steadyd, spawns real daemons on loopback, drives them from one
// process with one closed-loop client, checks every answer it samples
// against an in-process certified solve, and reports end-to-end
// metrics (untraced run) or per-layer metrics (traced run). See
// README.md in this directory for the glossary and the method.
//
//	bash bench/run.sh --workload hot_hit --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh                       # all four workloads
//	bash bench/run.sh -trace 1 -out set.jsonl
//	bash bench/run.sh -compare A.jsonl B.jsonl
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runCap bounds one workload's whole invocation — set-ups, measuring,
// oracle, replay. The contract allows 180 s; a run that reaches the cap
// is reported as truncated and fails.
const runCap = 150 * time.Second

// setups is how many times a run brings fresh daemons to the measured
// state; setup_s is the median, the last set-up is the one measured.
const setups = 3

// workload fixes one workload's shape. Op counts are constants, not
// durations, so a repetition is the same work on both sides of a
// comparison and the counts scraped around it repeat exactly.
type workload struct {
	name    string
	why     string
	daemons int
	warmup  int // untimed operations (control_drift: regimes) before measuring
	repOps  int // operations (control_drift: regimes) per repetition
	// oracleEvery-th replies are kept and checked against an in-process
	// certified solve after the run (solve workloads only).
	oracleEvery int
	// ref is the reference request the workload's times are scaled by:
	// the one that slows with the box the way the workload does.
	ref refKind
}

var workloads = []workload{
	{name: "hot_hit", daemons: 1, warmup: 2000, repOps: 1500, oracleEvery: 100, ref: refLight,
		why: "16 repeated n=16 platforms on one daemon: every request is a cache hit, so decode, fingerprint, lookup, encode and the socket are all of it"},
	{name: "cold_solve", daemons: 1, warmup: 200, repOps: 120, oracleEvery: 8, ref: refHeavy,
		why: "every n=48 platform distinct: every request misses and runs float search plus exact certificate; a hot-path change must show nothing here"},
	{name: "cluster_fwd", daemons: 2, warmup: 1000, repOps: 750, oracleEvery: 50, ref: refLight,
		why: "the hot set sent to the ring peer that does not own it: every request is forwarded one hop, so it prices the proxy path and nothing else"},
	{name: "control_drift", daemons: 1, warmup: 5, repOps: 25, ref: refLight,
		why: "telemetry batches against one tracked deployment, every edge cost switching regime each 100 batches: warm re-solve and publish, the write side of the LP cache"},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// driver is what the engine needs from a workload's load generator.
type driver interface {
	// daemonFlags returns each daemon's extra steadyd flags, given the
	// base URLs of all of them.
	daemonFlags(urls []string) [][]string
	// setup brings freshly healthy daemons to the measured state:
	// workload-specific readiness plus the fixed warm-up.
	setup(ctx context.Context, ds []*daemon) error
	// rep runs one repetition of the workload's fixed work. traced
	// repetitions of cold_solve draw from their own input stream.
	rep(ctx context.Context, r int, traced bool) (*repResult, error)
	// check runs the part of the oracle that needs no daemon.
	check(ctx context.Context) (checked, failed int, notes []string)
	// route is the daemon's label for the workload's primary request.
	route() string
	close()
}

func newDriver(ctx context.Context, spec *workload, seed int64) (driver, error) {
	if spec.name == "control_drift" {
		return newDriftDriver(spec, seed), nil
	}
	return newSolveDriver(ctx, spec, seed)
}

// environment is recorded with every result: numbers from different
// boxes or toolchains are not comparable.
type environment struct {
	NProc      int    `json:"nproc"`
	ClientCPUs string `json:"client_cpus"`
	DaemonCPUs string `json:"daemon_cpus"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
	ClkTck     int    `json:"clk_tck"`
}

// metric is one reported number. Reps carries the per-repetition
// summary when the value is a median of repetitions.
type metric struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Reps   *summary  `json:"reps,omitempty"`
	Values []float64 `json:"values,omitempty"`
}

// runRecord is one workload's result: one line of a -out set file.
type runRecord struct {
	Workload  string         `json:"workload"`
	Seed      int64          `json:"seed"`
	Seconds   int            `json:"seconds"`
	Traced    bool           `json:"traced"`
	Correct   bool           `json:"correct"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Notes     []string       `json:"notes,omitempty"`
	Ops       map[string]int `json:"ops"`
	WallS     float64        `json:"wall_s"`
	CapS      float64        `json:"cap_s"`
	Env       environment    `json:"env"`
	// Slowness is, per repetition, how much slower than nominal the box
	// served the reference bursts around it; the repetition's times
	// were divided by it.
	Slowness []float64         `json:"slowness,omitempty"`
	Metrics  map[string]metric `json:"metrics"`
}

// bench is one invocation's fixed context.
type bench struct {
	root    string // checkout root: the directory holding go.mod of module repro
	outDir  string
	steadyd string
	spawner *spawner
	// stopSpinners ends the processes that keep the CPUs from halting.
	stopSpinners func()
	ref          *reference
	env          environment
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name    = flag.String("workload", "", "workload to run (default: all of them, one after the other)")
		seed    = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds = flag.Int("seconds", 20, "how long each workload measures")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics from scrapes and an in-process replay")
		out     = flag.String("out", "", "append each workload's result to this JSON-lines set file")
		compare = flag.Bool("compare", false, "compare two set files: bench -compare A.jsonl B.jsonl")
		spinCPU = flag.Int(spinFlag, -1, "internal: run as the idle-priority spinner of this CPU")
		refAddr = flag.String(refFlag, "", "internal: run as the reference server on this address")
	)
	flag.Parse()
	if *spinCPU >= 0 {
		return spin(*spinCPU)
	}
	if *refAddr != "" {
		return serveReference(*refAddr)
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two set files")
			return 2
		}
		return compareSets(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	specs := workloads
	if *name != "" {
		spec := findWorkload(*name)
		if spec == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		specs = []workload{*spec}
	}

	// Daemons die with this context at the latest: on a signal (a
	// closed output pipe included), on any error return, and when a
	// workload's cap expires.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	defer stop()

	b, err := prepare(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	defer b.close()
	status := 0
	var last *runRecord
	for i := range specs {
		rec, err := b.run(ctx, &specs[i], *seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", specs[i].name, err)
			return 1
		}
		rec.print(os.Stdout)
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
		}
		if !rec.Correct {
			status = 1
		}
		last = rec
	}
	if *name != "" {
		// The contract's result line: the last line of standard output.
		last.printContractLine(os.Stdout)
	}
	return status
}

// prepare locates the checkout, refuses to run without /proc, and
// builds the daemon.
func prepare(ctx context.Context) (*bench, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	clientCPUs, daemonCPUs, err := pinClient()
	if err != nil {
		return nil, err
	}
	if _, err := cpuTicks(os.Getpid()); err != nil {
		return nil, fmt.Errorf("/proc is unreadable, CPU and memory metrics would be zeros: %w", err)
	}
	b := &bench{root: root, outDir: filepath.Join(root, "bench", "out")}
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		return nil, err
	}
	buildDir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	if b.steadyd, err = buildSteadyd(ctx, root, buildDir); err != nil {
		return nil, err
	}
	if b.spawner, err = newSpawner(daemonCPUs); err != nil {
		return nil, err
	}
	// One spinner per CPU in use; with a single allowed CPU the client
	// and the daemons share it and its spinner.
	cpus := daemonCPUs
	if clientCPUs[0] != daemonCPUs[0] {
		cpus = append(append([]int(nil), daemonCPUs...), clientCPUs...)
	}
	if b.stopSpinners, err = startSpinners(ctx, b.spawner, cpus); err != nil {
		return nil, err
	}
	// The reference request carries one fixed platform, whatever the
	// seed: the weight must not change with the inputs.
	if b.ref, err = startReference(ctx, b.spawner, solveBody(platformAt(0, streamHot, 0, hotNodes))); err != nil {
		b.stopSpinners()
		return nil, err
	}
	b.env = environment{
		NProc:      len(cpus),
		ClientCPUs: formatCPUs(clientCPUs),
		DaemonCPUs: formatCPUs(daemonCPUs),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(root),
		ClkTck:     clkTck(),
	}
	return b, nil
}

// findRoot locates the checkout from the benchmark's own binary,
// which run.sh puts in .bench_build/ at the checkout's root: the
// directory above must hold the go.mod of module repro, the module
// whose ./cmd/steadyd is under test. The working directory plays no
// part, so -out and -compare paths mean what the caller's shell means.
func findRoot() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	root := filepath.Dir(filepath.Dir(exe))
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil || !strings.HasPrefix(string(data), "module repro\n") {
		return "", fmt.Errorf("%s is not two levels below the go.mod of module repro: start the benchmark with bench/run.sh", exe)
	}
	return root, nil
}

// gitCommit is recorded when the checkout is a git repository; the
// driver's checkouts are not.
func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// spawn starts the workload's daemons and waits until each answers
// /v1/healthz.
func (b *bench) spawn(ctx context.Context, spec *workload, drv driver, c *client) ([]*daemon, error) {
	addrs := make([]string, spec.daemons)
	urls := make([]string, spec.daemons)
	for i := range addrs {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		addrs[i], urls[i] = addr, "http://"+addr
	}
	flags := drv.daemonFlags(urls)
	var ds []*daemon
	for i, addr := range addrs {
		logPath := filepath.Join(b.outDir, fmt.Sprintf("steadyd-%s-%d.log", spec.name, i))
		d, err := startDaemon(ctx, b.spawner, b.steadyd, addr, logPath, flags[i]...)
		if err != nil {
			stopAll(ds)
			return nil, err
		}
		ds = append(ds, d)
	}
	for _, d := range ds {
		if err := d.waitHealthy(ctx, c.hc); err != nil {
			stopAll(ds)
			return nil, err
		}
	}
	return ds, nil
}

func stopAll(ds []*daemon) {
	for _, d := range ds {
		d.stop()
	}
}

func (b *bench) sumCPU(ds []*daemon) (uint64, error) {
	var total uint64
	for _, d := range ds {
		t, err := cpuNanos(d.pid(), b.env.ClkTck)
		if err != nil {
			return 0, err
		}
		total += t
	}
	return total, nil
}

func (b *bench) close() {
	b.ref.stop()
	b.stopSpinners()
}

// run measures one workload.
func (b *bench) run(parent context.Context, spec *workload, seed int64, seconds int, traced bool) (*runRecord, error) {
	ctx, cancel := context.WithTimeout(parent, runCap)
	defer cancel()
	began := time.Now()
	rec := &runRecord{
		Workload: spec.name, Seed: seed, Seconds: seconds, Traced: traced,
		Ops:     map[string]int{"warmup": spec.warmup, "per_rep": spec.repOps},
		CapS:    runCap.Seconds(),
		Env:     b.env,
		Metrics: map[string]metric{},
	}
	truncated := func(err error) error {
		if errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("truncated: the %v cap expired", runCap)
		}
		return err
	}

	// Set up several times; keep the last.
	var (
		drv     driver
		ds      []*daemon
		setupsS []float64
	)
	hc := newClient()
	defer hc.hc.CloseIdleConnections()
	slow, err := b.ref.weigh(ctx, spec.ref)
	if err != nil {
		return nil, truncated(err)
	}
	for s := 0; s < setups; s++ {
		t0 := time.Now()
		if drv, err = newDriver(ctx, spec, seed); err != nil {
			return nil, truncated(err)
		}
		if ds, err = b.spawn(ctx, spec, drv, hc); err != nil {
			return nil, truncated(err)
		}
		if err := drv.setup(ctx, ds); err != nil {
			drv.close()
			stopAll(ds)
			return nil, truncated(err)
		}
		took := time.Since(t0).Seconds()
		after, err := b.ref.weigh(ctx, spec.ref)
		if err != nil {
			drv.close()
			stopAll(ds)
			return nil, truncated(err)
		}
		setupsS = append(setupsS, took/((slow+after)/2))
		slow = after
		if s < setups-1 {
			drv.close()
			stopAll(ds)
		}
	}
	// From here the daemons and the driver are released exactly once,
	// on every path.
	released := false
	release := func() {
		if !released {
			released = true
			drv.close()
			stopAll(ds)
		}
	}
	defer release()

	m, err := b.measure(ctx, spec, drv, ds, hc, time.Duration(seconds)*time.Second, traced)
	if err != nil {
		return nil, truncated(err)
	}
	var rssKiB uint64
	for _, d := range ds {
		kib, err := peakRSSKiB(d.pid())
		if err != nil {
			return nil, err
		}
		rssKiB = max(rssKiB, kib)
	}
	release()

	checked, failed, notes := drv.check(ctx)
	rec.Attempted = m.attempted + checked
	rec.Failed = m.failed + failed
	rec.Notes = append(m.notes, notes...)
	rec.Slowness = m.slowness
	rec.Ops["reps"] = len(m.reps["p50_us"])
	rec.Ops["total"] = m.ops

	if traced {
		layer, err := b.replay(ctx, spec, drv, seed)
		if err != nil {
			return nil, truncated(err)
		}
		for k, v := range m.layer {
			layer[k] = v
		}
		if h, r := layer["server.handle_us"], m.clientMean; h > 0 {
			layer["net.rtt_us"] = r - h
		}
		for _, def := range perLayer {
			rec.Metrics[def.name] = metric{Value: layer[def.name], Unit: def.unit}
		}
	} else {
		su := summarize(setupsS)
		rec.Metrics["setup_s"] = metric{Value: su.Median, Unit: "s", Reps: &su}
		for _, def := range endToEnd {
			if vals, ok := m.reps[def.name]; ok {
				s := summarize(vals)
				rec.Metrics[def.name] = metric{Value: def.overReps(s), Unit: def.unit, Reps: &s, Values: vals}
			}
		}
		rec.Metrics["rss_mb"] = metric{Value: float64(rssKiB) / 1024, Unit: "MiB"}
	}
	rec.Correct = rec.Failed == 0
	rec.WallS = time.Since(began).Seconds()
	return rec, nil
}

// measured is what the repetitions of one run add up to.
type measured struct {
	reps       map[string][]float64 // end-to-end metric name -> per-repetition values
	slowness   []float64            // per repetition: the reference bursts around it, over nominal
	layer      map[string]float64   // per-layer metrics from scrapes and the client's samples
	clientMean float64              // mean client latency of the scraped repetitions, µs
	ops        int
	attempted  int
	failed     int
	notes      []string
}

// measure runs repetitions until the time is used up. A traced run
// brackets every other repetition with scrapes of the daemons' public
// surfaces and leaves the ones between plain, so the ruler's own
// perturbation can be reported.
func (b *bench) measure(ctx context.Context, spec *workload, drv driver, ds []*daemon, hc *client, budget time.Duration, traced bool) (*measured, error) {
	m := &measured{reps: map[string][]float64{}, layer: map[string]float64{}}
	var (
		all        []float64 // every primary latency sample, for the tail diagnostics
		replans    []float64
		scraped    []map[string]float64
		scrapedP50 []float64
		plainP50   []float64
		meanSum    float64
		epochs     = map[string]float64{}
	)
	// An untraced run weighs the box before and after every repetition
	// and reports the repetition's times at nominal speed. A traced
	// run reports raw times: they have to add up with the daemon's own.
	slowBefore := 1.0
	if !traced {
		var err error
		if slowBefore, err = b.ref.weigh(ctx, spec.ref); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	for r := 0; time.Since(start) < budget || r < 3; r++ {
		bracket := traced && r%2 == 0
		var before []*scrape
		if bracket {
			for _, d := range ds {
				s, err := d.scrape(ctx, hc.hc)
				if err != nil {
					return nil, err
				}
				before = append(before, s)
			}
		}
		cpu0, err := b.sumCPU(ds)
		if err != nil {
			return nil, err
		}
		res, err := drv.rep(ctx, r, bracket)
		if err != nil {
			return nil, err
		}
		cpu1, err := b.sumCPU(ds)
		if err != nil {
			return nil, err
		}
		slow := 1.0
		if !traced {
			slowAfter, err := b.ref.weigh(ctx, spec.ref)
			if err != nil {
				return nil, err
			}
			slow, slowBefore = (slowBefore+slowAfter)/2, slowAfter
		}
		m.slowness = append(m.slowness, slow)
		sort.Float64s(res.lat)
		p50 := quantile(res.lat, 0.5)
		m.reps["p50_us"] = append(m.reps["p50_us"], p50/slow)
		m.reps["p90_us"] = append(m.reps["p90_us"], quantile(res.lat, 0.9)/slow)
		m.reps["ops_s"] = append(m.reps["ops_s"], float64(res.ops)/res.wall.Seconds()*slow)
		m.reps["cpu_us_per_op"] = append(m.reps["cpu_us_per_op"],
			float64(cpu1-cpu0)/1e3/float64(res.ops)/slow)
		m.ops += res.ops
		m.attempted += res.ops + res.checked
		m.failed += res.failed
		m.notes = append(m.notes, res.notes...)
		all = append(all, res.lat...)
		replans = append(replans, res.replan...)
		for k, v := range res.layer {
			epochs[k] += v
		}
		if !bracket {
			plainP50 = append(plainP50, p50)
			continue
		}
		scrapedP50 = append(scrapedP50, p50)
		meanSum += mean(res.lat)
		delta := map[string]float64{}
		for i, d := range ds {
			after, err := d.scrape(ctx, hc.hc)
			if err != nil {
				return nil, err
			}
			addDelta(delta, before[i], after, drv.route())
		}
		scraped = append(scraped, layerFromDelta(delta, res.ops, len(ds)))
	}

	sort.Float64s(all)
	m.layer["client.p99_us"] = quantile(all, 0.99)
	m.layer["client.p999_us"] = quantile(all, 0.999)
	m.layer["client.max_us"] = all[len(all)-1]
	m.layer["client.samples"] = float64(len(all))
	m.layer["client.rep_spread"] = summarize(m.reps["p50_us"]).spread()
	if len(replans) > 0 {
		sort.Float64s(replans)
		m.layer["control.replan_p50_us"] = quantile(replans, 0.5)
		m.layer["control.replan_p90_us"] = quantile(replans, 0.9)
	}
	if n := epochs["epochs"]; n > 0 {
		m.layer["control.epochs_per_regime"] = n / epochs["regimes"]
		m.layer["control.warm_ratio"] = epochs["warm"] / n
		m.layer["control.cache_hit_ratio"] = epochs["cache_hits"] / n
		m.layer["control.pivots_per_epoch"] = epochs["pivots"] / n
	}
	if len(scraped) == 0 {
		return m, nil
	}

	// Times are medians over the scraped repetitions; counts come from
	// the first one, whose inputs and predecessor state are the same
	// in every run of a seed, so they repeat exactly.
	for name, first := range scraped[0] {
		if !strings.HasSuffix(name, "_us") {
			m.layer[name] = first
			continue
		}
		vals := make([]float64, len(scraped))
		for i, s := range scraped {
			vals[i] = s[name]
		}
		m.layer[name] = medianOf(vals)
	}
	m.clientMean = meanSum / float64(len(scraped))
	if spec.name == "control_drift" {
		m.layer["control.observe_us"] = m.layer["server.handle_us"]
	}
	if len(plainP50) > 0 {
		m.layer["trace.overhead_ratio"] = medianOf(scrapedP50) / medianOf(plainP50)
	}
	if sd, ok := drv.(*solveDriver); ok && spec.name == "cluster_fwd" {
		if err := b.priceHop(ctx, sd, ds, hc, m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// priceHop sends the cluster workload's requests straight to their
// owners, between two scrapes. That gives the owner's handler time on
// its own, hence the front peer's (every forwarded request is handled
// once by each), and the price of the hop as the client sees it.
func (b *bench) priceHop(ctx context.Context, sd *solveDriver, ds []*daemon, hc *client, m *measured) error {
	var before []*scrape
	for _, d := range ds {
		s, err := d.scrape(ctx, hc.hc)
		if err != nil {
			return err
		}
		before = append(before, s)
	}
	lat, err := sd.directRep(ctx)
	if err != nil {
		return err
	}
	delta := map[string]float64{}
	for i, d := range ds {
		after, err := d.scrape(ctx, hc.hc)
		if err != nil {
			return err
		}
		addDelta(delta, before[i], after, sd.route())
	}
	owner := delta["http_sum"] / delta["http_count"] * 1e6
	// server.handle_us so far is the mean over both handlers of every
	// forwarded request; the front one is what is left of their sum.
	front := 2*m.layer["server.handle_us"] - owner
	m.layer["cluster.owner_handle_us"] = owner
	m.layer["server.handle_us"] = front
	sort.Float64s(lat)
	m.layer["cluster.hop_us"] = medianOf(m.reps["p50_us"]) - quantile(lat, 0.5)
	return nil
}

// replay runs the in-process half of the traced run and writes the
// spans it recorded.
func (b *bench) replay(ctx context.Context, spec *workload, drv driver, seed int64) (map[string]float64, error) {
	tr := newTracer()
	var (
		layer map[string]float64
		err   error
	)
	switch d := drv.(type) {
	case *driftDriver:
		layer, err = replayControl(ctx, tr, d)
	case *solveDriver:
		inputs := make([]input, replayInputs)
		if spec.name == "cold_solve" {
			for i := range inputs {
				p := platformAt(seed, streamColdTraced, i, coldNodes)
				inputs[i] = input{plat: p, body: solveBody(p)}
			}
		} else {
			for i := range inputs {
				inputs[i] = d.hot[i%hotSetSize]
			}
		}
		layer, err = replaySolve(ctx, tr, inputs, spec.name != "cold_solve")
		if err == nil && spec.name == "cluster_fwd" {
			layer["cluster.owner_ns"] = replayRing(d.hot)
		}
	}
	if err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(b.outDir, "trace-"+spec.name+".jsonl")); err != nil {
		return nil, err
	}
	return layer, nil
}

func (r *runRecord) print(w *os.File) {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%s %s %.6g %s", r.Workload, name, m.Value, m.Unit)
		if m.Reps != nil && m.Reps.N > 1 {
			fmt.Fprintf(w, "  (quartiles %.6g..%.6g over %d)", m.Reps.Q1, m.Reps.Q3, m.Reps.N)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%s attempted %d failed %d reps %d wall %.1fs of %.0fs cap\n",
		r.Workload, r.Attempted, r.Failed, r.Ops["reps"], r.WallS, r.CapS)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "%s FAILED %s\n", r.Workload, n)
	}
}

// printContractLine prints the one JSON object the driver reads.
func (r *runRecord) printContractLine(w *os.File) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	for _, def := range defs {
		line.Metrics[def.name] = value{r.Metrics[def.name].Value, def.unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings always encode
	}
	fmt.Fprintf(w, "%s\n", out)
}

func appendRecord(path string, rec *runRecord) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
