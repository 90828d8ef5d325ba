// Package repro's root benchmark harness: one benchmark per
// experiment of DESIGN.md §3 (each regenerates a figure or claim of
// the paper), plus kernel benchmarks for the substrates on the
// critical path (exact simplex, edge coloring, reconstruction,
// simulators).
//
// Run with:
//
//	go test -bench=. -benchmem .
package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/schedule"
	"repro/pkg/steady"
	"repro/pkg/steady/batch"
	"repro/pkg/steady/lp"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
	serverpkg "repro/pkg/steady/server"
	simpkg "repro/pkg/steady/sim"
	"repro/pkg/steady/sim/event"
)

// benchExperiment times a full experiment regeneration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for _, e := range experiments.Registry() {
		if e.ID != id {
			continue
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := e.Run(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
		return
	}
	b.Fatalf("unknown experiment %s", id)
}

func BenchmarkE1MasterSlave(b *testing.B)      { benchExperiment(b, "E1") }
func BenchmarkE2Scatter(b *testing.B)          { benchExperiment(b, "E2") }
func BenchmarkE3Multicast(b *testing.B)        { benchExperiment(b, "E3") }
func BenchmarkE4Broadcast(b *testing.B)        { benchExperiment(b, "E4") }
func BenchmarkE5Asymptotic(b *testing.B)       { benchExperiment(b, "E5") }
func BenchmarkE6Startup(b *testing.B)          { benchExperiment(b, "E6") }
func BenchmarkE7FixedPeriod(b *testing.B)      { benchExperiment(b, "E7") }
func BenchmarkE8Adaptive(b *testing.B)         { benchExperiment(b, "E8") }
func BenchmarkE9SendRecv(b *testing.B)         { benchExperiment(b, "E9") }
func BenchmarkE10Discovery(b *testing.B)       { benchExperiment(b, "E10") }
func BenchmarkE11DAG(b *testing.B)             { benchExperiment(b, "E11") }
func BenchmarkE12Collectives(b *testing.B)     { benchExperiment(b, "E12") }
func BenchmarkE13Baselines(b *testing.B)       { benchExperiment(b, "E13") }
func BenchmarkE15Divisible(b *testing.B)       { benchExperiment(b, "E15") }
func BenchmarkE16Multiport(b *testing.B)       { benchExperiment(b, "E16") }
func BenchmarkE17GreedyMulticast(b *testing.B) { benchExperiment(b, "E17") }

// Kernel benchmarks: the building blocks, at growing platform sizes.

func randomPlatform(n int) *platform.Platform {
	rng := rand.New(rand.NewSource(int64(n)))
	return platform.RandomConnected(rng, n, n, 5, 5, 0.15)
}

func BenchmarkSolveMasterSlave8(b *testing.B)  { benchSolveMS(b, 8) }
func BenchmarkSolveMasterSlave16(b *testing.B) { benchSolveMS(b, 16) }
func BenchmarkSolveMasterSlave24(b *testing.B) { benchSolveMS(b, 24) }

func benchSolveMS(b *testing.B, n int) {
	p := randomPlatform(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveMasterSlave(p, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveScatter8(b *testing.B) {
	p := randomPlatform(8)
	targets := []int{1, 2, 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveScatter(p, 0, targets); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstruct16(b *testing.B) {
	p := randomPlatform(16)
	ms, err := core.SolveMasterSlave(p, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := schedule.Reconstruct(ms); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPeriodicSim100Periods(b *testing.B) {
	p := platform.Figure1()
	ms, err := core.SolveMasterSlave(p, 0)
	if err != nil {
		b.Fatal(err)
	}
	per, err := schedule.Reconstruct(ms)
	if err != nil {
		b.Fatal(err)
	}
	spec := &event.PeriodicSpec{Platform: per.P, Commodities: per.Commodities}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := event.RunPeriodic(spec, 100, event.PeriodicOptions{PerPeriod: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMakespan100kTasks(b *testing.B) {
	p := platform.Figure1()
	ms, err := core.SolveMasterSlave(p, 0)
	if err != nil {
		b.Fatal(err)
	}
	per, err := schedule.Reconstruct(ms)
	if err != nil {
		b.Fatal(err)
	}
	spec := &event.PeriodicSpec{Platform: per.P, Commodities: per.Commodities}
	n := big.NewInt(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := event.RunUntil(spec, n, event.PeriodicOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Batch-sweep benchmarks: 12 jobs over 6 distinct platforms on a
// 4-worker batch.Pool through one batch.Cache. Cold makes a new cache
// every iteration (every distinct platform solves its LP); Warm reuses
// one, so after the first iteration every job is a cache hit — the
// spread between the two is the cache's leverage.

func batchJobs(b *testing.B) []batch.Job {
	b.Helper()
	solver, err := steady.New(steady.Spec{Problem: "masterslave"})
	if err != nil {
		b.Fatal(err)
	}
	var jobs []batch.Job
	for i := 0; i < 12; i++ {
		jobs = append(jobs, batch.Job{
			ID:       fmt.Sprintf("j%d", i),
			Platform: randomPlatform(8 + 2*(i%6)),
			Solver:   solver,
		})
	}
	return jobs
}

func runBatchBench(b *testing.B, warm bool) {
	jobs := batchJobs(b)
	ctx := context.Background()
	cache := batch.NewCache(0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !warm {
			cache = batch.NewCache(0, 0)
		}
		err := batch.Pool(ctx, 4, len(jobs),
			func(ctx context.Context, i int) error {
				job := jobs[i]
				_, err, _ := cache.DoSolve(ctx, batch.KeyFor(job.Platform, job.Solver), job.Solver.Name(), func(ctx context.Context, opts ...steady.SolveOption) (*steady.Result, error) {
					return job.Solver.Solve(ctx, job.Platform, opts...)
				})
				return err
			},
			func(_ int, err error) error { return err },
			func(_ int, err error) error { return err })
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBatchSweepCold(b *testing.B) { runBatchBench(b, false) }
func BenchmarkBatchSweepWarm(b *testing.B) { runBatchBench(b, true) }

// Cache benchmarks: concurrent hot lookups against the LP-solution
// cache with one lock (shards=1, the pre-sharding design) versus the
// sharded layout. Run with -cpu to vary goroutine count; the sharded
// cache should pull ahead as goroutines grow (the acceptance bar is
// >= 8).

func benchCacheParallel(b *testing.B, shards int) {
	const nkeys = 512
	cache := batch.NewCache(shards, 0)
	res := &steady.Result{}
	solve := func() (*steady.Result, error) { return res, nil }
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = batch.Key(fmt.Sprintf("%064x", i), "bench")
		if _, err, _ := cache.Do(context.Background(), keys[i], solve); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.SetParallelism(4) // 4 x GOMAXPROCS goroutines, so >= 8 even on 2 cores
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err, hit := cache.Do(ctx, keys[i%nkeys], solve); err != nil || !hit {
				b.Errorf("miss on a hot key (err=%v)", err)
				return
			}
			i++
		}
	})
}

func BenchmarkSingleLockCacheParallel(b *testing.B) { benchCacheParallel(b, 1) }
func BenchmarkShardedCacheParallel(b *testing.B) {
	benchCacheParallel(b, batch.DefaultCacheShards)
}

// Server benchmarks: a full POST /v1/solve round-trip through the
// HTTP service. Hot serves every request from the sharded cache
// (steady-state service traffic); Cold restarts the server each
// iteration so the LP really solves — the spread is what the cache
// buys an HTTP client.

func benchServerSolve(b *testing.B, hot bool) {
	// allocs/op spans client and server, so the absolute number is
	// dominated by the HTTP client and the socket; the handler alone is
	// pkg/steady/server's BenchmarkServerHandleHot / ...Miss48.
	b.ReportAllocs()
	var buf bytes.Buffer
	if err := platform.Figure1().WriteJSON(&buf); err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(serverpkg.SolveRequest{
		Problem: "masterslave", Root: "P1", Platform: buf.Bytes(),
	})
	if err != nil {
		b.Fatal(err)
	}
	newServer := func() *httptest.Server {
		return httptest.NewServer(serverpkg.New(serverpkg.Config{}).Handler())
	}
	post := func(ts *httptest.Server) {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}

	if hot {
		ts := newServer()
		defer ts.Close()
		post(ts) // warm the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(ts)
		}
		return
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := newServer()
		post(ts)
		ts.Close()
	}
}

func BenchmarkServerSolveHot(b *testing.B)  { benchServerSolve(b, true) }
func BenchmarkServerSolveCold(b *testing.B) { benchServerSolve(b, false) }

// Simulation-engine benchmarks: the public replay engine on a solved
// master-slave instance. Static measures the exact periodic replay
// (steady-state extrapolation makes the horizon nearly free — the
// cost is the transient); Dynamic measures the event-driven scenario
// path; Sweep measures a small scenario grid through the worker pool
// with a warm LP cache.

func simBenchResult(b testing.TB) *steady.Result {
	b.Helper()
	solver, err := steady.New(steady.Spec{Problem: "masterslave", Root: "P1"})
	if err != nil {
		b.Fatal(err)
	}
	res, err := solver.Solve(context.Background(), platform.Figure1())
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func BenchmarkSimEngineStatic(b *testing.B) {
	res := simBenchResult(b)
	eng := simpkg.New(simpkg.Config{})
	sc := simpkg.Scenario{Periods: 100000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(context.Background(), res, sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimEngineDynamic(b *testing.B) {
	res := simBenchResult(b)
	eng := simpkg.New(simpkg.Config{})
	sc := simpkg.Scenario{
		Tasks:     1000,
		Slowdowns: []simpkg.Slowdown{{Node: "P2", Factor: 2, From: 50, Until: 200}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(context.Background(), res, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// The sweep-family benchmark: the pkg/steady/lp revised simplex
// solving a family of structurally identical master-slave LPs, every
// member from the crash basis, as every solve starts
// (TestLPPivotCounts pins its pivots/solve).

func coldSweepPlatform(base *platform.Platform, step int64) *platform.Platform {
	q := platform.New()
	for i := 0; i < base.NumNodes(); i++ {
		w := base.Weight(i)
		if !w.Inf {
			w = platform.W(w.Val.Add(rat.New(step, 103)))
		}
		q.AddNode(base.Name(i), w)
	}
	for _, ed := range base.Edges() {
		q.AddEdge(ed.From, ed.To, ed.C.Add(rat.New(step, 101)))
	}
	return q
}

// coldSweepFamily is the sweep family of BenchmarkLPColdSweep: eight
// re-weightings of one n=16 platform.
func coldSweepFamily() []*platform.Platform {
	base := randomPlatform(16)
	family := make([]*platform.Platform, 8)
	for step := range family {
		family[step] = coldSweepPlatform(base, int64(step))
	}
	return family
}

// familyPivots solves the family in order and returns the pivots it
// took, float and exact.
func familyPivots(family []*platform.Platform) (int, error) {
	pivots := 0
	for _, p := range family {
		ms, err := core.SolveMasterSlavePort(p, 0, core.SendAndReceive)
		if err != nil {
			return 0, err
		}
		pivots += ms.LP.FloatPivots + ms.LP.Pivots
	}
	return pivots, nil
}

// BenchmarkLPColdSweep solves the cold sweep family in order, every
// member from the crash basis.
func BenchmarkLPColdSweep(b *testing.B) {
	family := coldSweepFamily()
	b.ReportAllocs()
	pivots := 0
	for i := 0; i < b.N; i++ {
		n, err := familyPivots(family)
		if err != nil {
			b.Fatal(err)
		}
		pivots += n
	}
	b.ReportMetric(float64(pivots)/float64(b.N*len(family)), "pivots/solve")
}

// BenchmarkLPFloatFirstCold is one cold master-slave solve of a
// 100-node generated platform: float64 search, then exact basis
// certification. Its one sub-benchmark is the name TestLPPivotCounts
// and the README's LP table read it by.
func BenchmarkLPFloatFirstCold(b *testing.B) {
	p := randomPlatform(100)
	b.Run("FloatFirst", func(b *testing.B) {
		b.ReportAllocs()
		floatPivots, fallbacks := 0, 0
		for i := 0; i < b.N; i++ {
			ms, err := core.SolveMasterSlave(p, 0)
			if err != nil {
				b.Fatal(err)
			}
			floatPivots += ms.LP.FloatPivots
			if ms.LP.CertifiedCold {
				fallbacks++
			}
		}
		b.ReportMetric(float64(floatPivots)/float64(b.N), "float_pivots/solve")
		b.ReportMetric(float64(fallbacks)/float64(b.N), "fallbacks/solve")
	})
}

// coldMiss48Family is how many distinct platforms BenchmarkLPColdMiss48
// cycles through.
const coldMiss48Family = 64

// coldMiss48Platform is the i-th platform of BenchmarkLPColdMiss48.
func coldMiss48Platform(i int) *platform.Platform {
	rng := rand.New(rand.NewSource(int64(4800 + i)))
	return platform.RandomConnected(rng, 48, 48, 5, 5, 0.15)
}

// BenchmarkLPColdMiss48 is the in-package mirror of bench/'s
// cold_solve workload: 64 distinct 48-node platforms, each solved cold
// — what a steadyd cache miss hands the LP, which no other request's
// basis primes. One op is one solve.
func BenchmarkLPColdMiss48(b *testing.B) {
	const distinct = coldMiss48Family
	platforms := make([]*platform.Platform, distinct)
	for i := range platforms {
		platforms[i] = coldMiss48Platform(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	floatPivots := 0
	for i := 0; i < b.N; i++ {
		ms, err := core.SolveMasterSlavePortOpts(platforms[i%distinct], 0, core.SendAndReceive, nil)
		if err != nil {
			b.Fatal(err)
		}
		floatPivots += ms.LP.FloatPivots
	}
	b.ReportMetric(float64(floatPivots)/float64(b.N), "float_pivots/solve")
}

// collectiveSolve is core.SolveBroadcastBoundOpts or SolveReduceBoundOpts.
type collectiveSolve func(*platform.Platform, int, *lp.Options) (*core.Scatter, error)

// collectivePlatform is the n-node platform of the collective benchmarks.
func collectivePlatform(n int) *platform.Platform {
	return platform.RandomConnected(rand.New(rand.NewSource(7)), n, n, 5, 5, 0.15)
}

// BenchmarkLPCold{Broadcast,Reduce}{24,48} are ROADMAP item 3's
// in-package rulers for the paper's headline collectives: the §3.3
// broadcast bound (every other node a target) and the §4.2 reduce of
// one generated platform, solved cold float-first. The LP is one flow
// per target coupled through shared link rows, so its size grows as
// targets × edges — 1 657 rows at n=24 — and the time is the float
// walk plus one exact install of its basis. TestLPPivotCounts pins
// the pivot counts.
func benchLPColdCollective(b *testing.B, n int, solve collectiveSolve) {
	p := collectivePlatform(n)
	b.ReportAllocs()
	b.ResetTimer()
	floatPivots := 0
	for i := 0; i < b.N; i++ {
		sc, err := solve(p, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		floatPivots += sc.LP.FloatPivots
	}
	b.ReportMetric(float64(floatPivots)/float64(b.N), "float_pivots/solve")
}

func BenchmarkLPColdBroadcast24(b *testing.B) {
	benchLPColdCollective(b, 24, core.SolveBroadcastBoundOpts)
}
func BenchmarkLPColdBroadcast48(b *testing.B) {
	benchLPColdCollective(b, 48, core.SolveBroadcastBoundOpts)
}
func BenchmarkLPColdReduce24(b *testing.B) { benchLPColdCollective(b, 24, core.SolveReduceBoundOpts) }
func BenchmarkLPColdReduce48(b *testing.B) { benchLPColdCollective(b, 48, core.SolveReduceBoundOpts) }

// adaptiveWarmScenario is the scenario of BenchmarkSimAdaptiveWarm.
var adaptiveWarmScenario = simpkg.Scenario{
	Tasks:       1000,
	Adaptive:    true,
	EpochLength: 10,
	Slowdowns:   []simpkg.Slowdown{{Node: "P2", Factor: 2, From: 50, Until: 200}},
}

// BenchmarkSimAdaptiveWarm measures the §5.5 adaptive scenario: the
// run's control.Manager re-solves on drift, each a cold solve of its
// estimate, 4 times in 75 epochs; pivots/resolve is the exact pivots a
// re-plan costs the control loop (TestLPPivotCounts: 0).
func BenchmarkSimAdaptiveWarm(b *testing.B) {
	res := simBenchResult(b)
	eng := simpkg.New(simpkg.Config{})
	sc := adaptiveWarmScenario
	var pivots, resolves int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := eng.Run(context.Background(), res, sc)
		if err != nil {
			b.Fatal(err)
		}
		pivots += rep.LPPivots
		resolves += int64(rep.Resolves)
	}
	if resolves > 0 {
		b.ReportMetric(float64(pivots)/float64(resolves), "pivots/resolve")
	}
}

func BenchmarkTreePackingFigure2(b *testing.B) {
	p := platform.Figure2()
	src := p.NodeByName("P0")
	targets := platform.Figure2Targets(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveTreePacking(p, src, targets); err != nil {
			b.Fatal(err)
		}
	}
}
