package steady_test

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/pkg/steady"
	"repro/pkg/steady/obs"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

func mustSolve(t *testing.T, spec steady.Spec, p *platform.Platform) *steady.Result {
	t.Helper()
	solver, err := steady.New(spec)
	if err != nil {
		t.Fatalf("New(%+v): %v", spec, err)
	}
	res, err := solver.Solve(context.Background(), p)
	if err != nil {
		t.Fatalf("%s: %v", solver.Name(), err)
	}
	return res
}

// TestMasterSlaveFigure1 pins the facade to the paper's §3.1 result:
// ntask(G) = 4/3 on the Figure 1 platform with master P1.
func TestMasterSlaveFigure1(t *testing.T) {
	p := platform.Figure1()
	res := mustSolve(t, steady.Spec{Problem: "masterslave", Root: "P1"}, p)
	if want := rat.New(4, 3); !res.Throughput.Equal(want) {
		t.Fatalf("throughput = %v, want %v", res.Throughput, want)
	}
	if len(res.Nodes()) != p.NumNodes() || len(res.Links()) != p.NumEdges() {
		t.Fatalf("activity sizes %d/%d, want %d/%d",
			len(res.Nodes()), len(res.Links()), p.NumNodes(), p.NumEdges())
	}
	// The per-node rates must sum back to the throughput (the
	// exact-rational invariant, re-checked through the facade view).
	sum := rat.Zero()
	for _, n := range res.Nodes() {
		sum = sum.Add(n.Rate)
	}
	if !sum.Equal(res.Throughput) {
		t.Fatalf("sum of node rates %v != throughput %v", sum, res.Throughput)
	}
	if res.Fingerprint != steady.Fingerprint(p) {
		t.Fatalf("result fingerprint mismatch")
	}
	sch, err := res.Reconstruct()
	if err != nil {
		t.Fatalf("Reconstruct: %v", err)
	}
	if !sch.Throughput.Equal(res.Throughput) {
		t.Fatalf("schedule throughput %v != LP %v", sch.Throughput, res.Throughput)
	}
	if len(sch.Slots) == 0 {
		t.Fatalf("no communication slots")
	}
}

// TestMulticastFamilyFigure2 pins the three multicast solvers to the
// Figure 2/3 counterexample: sum-LP 1/2 < tree packing 3/4 < bound 1.
func TestMulticastFamilyFigure2(t *testing.T) {
	p := platform.Figure2()
	spec := steady.Spec{Root: "P0", Targets: []string{"P5", "P6"}}
	for _, tc := range []struct {
		problem string
		want    rat.Rat
	}{
		{"multicast-sum", rat.New(1, 2)},
		{"multicast-trees", rat.New(3, 4)},
		{"multicast", rat.One()},
	} {
		spec.Problem = tc.problem
		res := mustSolve(t, spec, p)
		if !res.Throughput.Equal(tc.want) {
			t.Errorf("%s: TP = %v, want %v", tc.problem, res.Throughput, tc.want)
		}
	}
}

func TestBroadcastAndReduceFigure2(t *testing.T) {
	p := platform.Figure2()
	b := mustSolve(t, steady.Spec{Problem: "broadcast", Root: "P0"}, p)
	if want := rat.New(1, 2); !b.Throughput.Equal(want) {
		t.Fatalf("broadcast TP = %v, want %v", b.Throughput, want)
	}
	// Reduce runs on the reversed graph, so root it at a node with
	// incoming edges (Figure 2's P0 is a pure source).
	r := mustSolve(t, steady.Spec{Problem: "reduce", Root: "P1"}, platform.Figure1())
	if r.Throughput.Sign() <= 0 {
		t.Fatalf("reduce TP = %v, want > 0", r.Throughput)
	}
}

func TestScatterReconstruct(t *testing.T) {
	p := platform.Figure1()
	res := mustSolve(t, steady.Spec{Problem: "scatter", Root: "P1", Targets: []string{"P4", "P5"}}, p)
	sch, err := res.Reconstruct()
	if err != nil {
		t.Fatalf("Reconstruct: %v", err)
	}
	if !sch.Throughput.Equal(res.Throughput) {
		t.Fatalf("schedule throughput %v != LP %v", sch.Throughput, res.Throughput)
	}
}

// TestEveryScheduleServesEveryMethod: a scatter or tree-packing
// schedule groups, prices start-ups and simulates like a masterslave
// one, and a zero Schedule answers nil or an error, never a panic.
func TestEveryScheduleServesEveryMethod(t *testing.T) {
	unit := func(string, string) rat.Rat { return rat.One() }
	for _, tc := range []struct {
		spec steady.Spec
		p    *platform.Platform
	}{
		{steady.Spec{Problem: "masterslave", Root: "P1"}, platform.Figure1()},
		{steady.Spec{Problem: "scatter", Root: "P1", Targets: []string{"P4", "P5"}}, platform.Figure1()},
		{steady.Spec{Problem: "multicast-trees", Root: "P0", Targets: []string{"P5", "P6"}}, platform.Figure2()},
	} {
		sch, err := mustSolve(t, tc.spec, tc.p).Reconstruct()
		if err != nil {
			t.Fatalf("%s: %v", tc.spec.Problem, err)
		}
		g, err := sch.Grouped(4)
		if err != nil {
			t.Fatalf("%s: Grouped: %v", tc.spec.Problem, err)
		}
		if g.Period().Cmp(new(big.Int).Mul(sch.Period(), big.NewInt(4))) != 0 ||
			g.TasksPerPeriod().Cmp(new(big.Int).Mul(sch.TasksPerPeriod(), big.NewInt(4))) != 0 {
			t.Errorf("%s: grouping by 4 gives T=%v, %v ops from T=%v, %v ops", tc.spec.Problem,
				g.Period(), g.TasksPerPeriod(), sch.Period(), sch.TasksPerPeriod())
		}
		eff, err := sch.EffectiveThroughput(unit)
		if err != nil || eff.Sign() <= 0 || !eff.Less(sch.Throughput) {
			t.Errorf("%s: effective throughput %v, %v; want in (0, %v)", tc.spec.Problem, eff, err, sch.Throughput)
		}
		if effG, _ := g.EffectiveThroughput(unit); !eff.Less(effG) {
			t.Errorf("%s: grouping did not amortize start-ups: %v then %v", tc.spec.Problem, eff, effG)
		}
		if sim, err := sch.Simulate(50); err != nil || sim.SteadyAfter < 0 {
			t.Errorf("%s: Simulate: %v (steady after %v)", tc.spec.Problem, err, sim)
		}
	}

	var zero steady.Schedule
	if zero.Period() != nil || zero.TasksPerPeriod() != nil {
		t.Error("a zero Schedule reports a period")
	}
	if _, err := zero.Grouped(2); err == nil {
		t.Error("a zero Schedule groups")
	}
	if _, err := zero.StartupExtension(unit); err == nil {
		t.Error("a zero Schedule prices start-ups")
	}
	if _, err := zero.EffectiveThroughput(unit); err == nil {
		t.Error("a zero Schedule has an effective throughput")
	}
	if _, err := zero.Simulate(10); err == nil {
		t.Error("a zero Schedule simulates")
	}
}

// TestSendOrReceiveModel exercises the §5.1.1 port model end to end:
// the LP bound exists but only the greedy evaluation is offered.
func TestSendOrReceiveModel(t *testing.T) {
	p := platform.Figure1()
	res := mustSolve(t, steady.Spec{Problem: "masterslave", Root: "P1", Model: steady.SendOrReceive}, p)
	if _, err := res.Reconstruct(); err == nil {
		t.Fatalf("Reconstruct under send-or-receive should fail")
	}
	ev, err := res.EvaluateGreedy()
	if err != nil {
		t.Fatalf("EvaluateGreedy: %v", err)
	}
	if !ev.Bound.Equal(res.Throughput) {
		t.Fatalf("bound %v != LP %v", ev.Bound, res.Throughput)
	}
	if ev.Achieved.Cmp(ev.Bound) > 0 {
		t.Fatalf("achieved %v exceeds bound %v", ev.Achieved, ev.Bound)
	}
}

// TestMulticastBoundNotReconstructible pins §4.3: the max-operator
// bound has no schedule, by design.
func TestMulticastBoundNotReconstructible(t *testing.T) {
	p := platform.Figure2()
	res := mustSolve(t, steady.Spec{Problem: "multicast", Root: "P0", Targets: []string{"P5", "P6"}}, p)
	if _, err := res.Reconstruct(); err == nil {
		t.Fatalf("multicast bound must not reconstruct")
	}
}

func TestSpecValidation(t *testing.T) {
	if _, err := steady.New(steady.Spec{Problem: "nope"}); err == nil {
		t.Errorf("unknown problem accepted")
	}
	if _, err := steady.New(steady.Spec{Problem: "scatter"}); err == nil {
		t.Errorf("scatter without targets accepted")
	}
	if _, err := steady.New(steady.Spec{Problem: "broadcast", Model: steady.SendOrReceive}); err == nil {
		t.Errorf("broadcast under send-or-receive accepted")
	}
	solver, err := steady.New(steady.Spec{Problem: "masterslave", Root: "ZZZ"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := solver.Solve(context.Background(), platform.Figure1()); err == nil {
		t.Errorf("unknown root accepted at solve time")
	}
}

func TestProblemsRegistry(t *testing.T) {
	got := strings.Join(steady.Problems(), " ")
	for _, want := range []string{"masterslave", "scatter", "multicast", "multicast-sum", "multicast-trees", "broadcast", "reduce"} {
		if !strings.Contains(got, want) {
			t.Errorf("Problems() = %q, missing %q", got, want)
		}
	}
}

func TestSolverNameEncodesSpec(t *testing.T) {
	a, _ := steady.New(steady.Spec{Problem: "masterslave", Root: "P1"})
	b, _ := steady.New(steady.Spec{Problem: "masterslave", Root: "P2"})
	c, _ := steady.New(steady.Spec{Problem: "masterslave", Root: "P1", Model: steady.SendOrReceive})
	if a.Name() == b.Name() || a.Name() == c.Name() || b.Name() == c.Name() {
		t.Fatalf("solver names collide: %q %q %q", a.Name(), b.Name(), c.Name())
	}
}

func TestSolveCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	solver, _ := steady.New(steady.Spec{Problem: "masterslave"})
	if _, err := solver.Solve(ctx, platform.Figure1()); err == nil {
		t.Fatalf("canceled context accepted")
	}
}

// TestSolveStopsWithItsContext: a solve is over when its context is.
// Broadcast at n=64 takes most of a second; under a 10 ms deadline
// Solve must return the context's
// error promptly, having run on this goroutine and left none behind —
// what lets the server's gate free a timed-out request's slot at
// return. A refused call (nil platform, unknown node, context already
// done) never reaches the LP.
func TestSolveStopsWithItsContext(t *testing.T) {
	p := platform.RandomConnected(rand.New(rand.NewSource(7)), 64, 64, 5, 5, 0.15)
	solver, err := steady.New(steady.Spec{Problem: "broadcast", Root: p.Name(0)})
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	start := time.Now()
	res, err := solver.Solve(ctx, p)
	took := time.Since(start)
	cancel()
	if res != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("result %v, error %v; want none and context.DeadlineExceeded", res, err)
	}
	if took > raceSlowdown*100*time.Millisecond {
		t.Errorf("returned %v after a 10ms deadline", took)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("%d goroutines after Solve returned, %d before", n, baseline)
	}

	t.Run("deadline sweep", testDeadlineSweep)

	// multicast-trees searches for arborescences before it has an LP to
	// solve — a tenth of a second on the 56-edge clique — and that search
	// stops too: nothing LP-shaped ever starts.
	reg := obs.New()
	k8 := platform.Clique(rand.New(rand.NewSource(7)), 8, 5, 5)
	trees, err := steady.New(steady.Spec{Problem: "multicast-trees", Root: k8.Name(0), Targets: []string{k8.Name(7)}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel = context.WithTimeout(context.Background(), time.Millisecond)
	res, err = trees.Solve(ctx, k8, steady.WithObs(reg))
	cancel()
	if res != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("multicast-trees: result %v, error %v; want none and context.DeadlineExceeded", res, err)
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		spec steady.Spec
		p    *platform.Platform
		want error
	}{
		{"done context", canceled, steady.Spec{Problem: "masterslave"}, platform.Figure1(), context.Canceled},
		{"nil platform", context.Background(), steady.Spec{Problem: "masterslave"}, nil, nil},
		{"unknown node", context.Background(), steady.Spec{Problem: "masterslave", Root: "ZZZ"}, platform.Figure1(), steady.ErrNoSuchNode},
	} {
		solver, err := steady.New(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := solver.Solve(tc.ctx, tc.p, steady.WithObs(reg))
		if res != nil || err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
			t.Fatalf("%s: result %v, error %v", tc.name, res, err)
		}
	}
	var text strings.Builder
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(text.String(), "steady_lp_") {
		t.Fatalf("a call that should never have started an LP recorded one:\n%s", text.String())
	}
}

// testDeadlineSweep: wherever its deadline falls — in the model build,
// standardize, an engine's load, the crash basis or a pivot — a solve
// stops within a millisecond in the median, because every stage before
// the first pivot polls between its blocks. Broadcast and reduce at n=64
// run far past the longest deadline; one untimed pass first warms the
// pools, as a serving process's are. A millisecond is judged on the
// solving thread's own CPU clock, from the moment the deadline fires to
// the return: what the solve does after it, free of the two things no
// solve controls and a shared machine inflates — the runtime's delivery
// of the timer, and the other processes the thread shares its CPUs with.
// Both show in the logged wall-clock overshoot.
func testDeadlineSweep(t *testing.T) {
	runtime.LockOSThread() // the solve runs on this goroutine: pin it to one thread's clock
	defer runtime.UnlockOSThread()
	tid := gettid()
	if _, ok := threadCPU(tid); !ok {
		t.Skip("no per-thread CPU clock on this platform")
	}
	var cpu, wall []time.Duration
	for pass := 0; pass < 2; pass++ {
		for _, problem := range []string{"broadcast", "reduce"} {
			for _, extra := range []int{64, 128} {
				q := platform.RandomConnected(rand.New(rand.NewSource(7)), 64, extra, 5, 5, 0.15)
				solver, err := steady.New(steady.Spec{Problem: problem, Root: q.Name(0)})
				if err != nil {
					t.Fatal(err)
				}
				for _, ms := range []time.Duration{1, 2, 3, 5, 8, 13, 21, 34} {
					deadline := ms * time.Millisecond
					ctx, cancel := context.WithCancel(context.Background())
					var fired time.Duration // the solving thread's CPU clock when the deadline fired
					timer := time.AfterFunc(deadline, func() {
						fired, _ = threadCPU(tid)
						cancel()
					})
					start := time.Now()
					_, err := solver.Solve(ctx, q)
					took := time.Since(start)
					stopped, _ := threadCPU(tid)
					timer.Stop()
					cancel()
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("%s extra=%d under %v: error %v, want context.Canceled", problem, extra, deadline, err)
					}
					if pass == 1 {
						cpu = append(cpu, stopped-fired)
						wall = append(wall, took-deadline)
					}
				}
			}
		}
	}
	slices.Sort(cpu)
	slices.Sort(wall)
	t.Logf("past deadlines of 1–34 ms: CPU p50 %v, max %v; wall clock p50 %v, max %v",
		cpu[len(cpu)/2], cpu[len(cpu)-1], wall[len(wall)/2], wall[len(wall)-1])
	if p50 := cpu[len(cpu)/2]; p50 > raceSlowdown*time.Millisecond {
		t.Errorf("median overshoot %v of CPU past deadlines of 1–34 ms (max %v), want <= 1ms", p50, cpu[len(cpu)-1])
	}
}

func TestFingerprint(t *testing.T) {
	a, b := platform.Figure1(), platform.Figure1()
	if steady.Fingerprint(a) != steady.Fingerprint(b) {
		t.Fatalf("identical platforms fingerprint differently")
	}
	c := platform.Figure1().Clone()
	c.AddNode("extra", platform.WInt(3))
	if steady.Fingerprint(a) == steady.Fingerprint(c) {
		t.Fatalf("different platforms share a fingerprint")
	}
	if steady.Fingerprint(a) == steady.Fingerprint(platform.Figure2()) {
		t.Fatalf("Figure1 and Figure2 share a fingerprint")
	}
}

func TestExperimentsSuite(t *testing.T) {
	suite := experiments.Registry()
	if len(suite) < 16 {
		t.Fatalf("suite has %d experiments, want >= 16", len(suite))
	}
	for _, e := range suite {
		if e.ID == "" || e.Desc == "" || e.Run == nil {
			t.Fatalf("malformed experiment %+v", e)
		}
	}
}

// TestReplayStopsWithItsContext: a bound's replay solves its companion
// tree packing, whose Steiner enumeration alone runs for seconds on this
// 45-edge platform (the broadcast bound itself takes milliseconds). That
// solve is an ordinary one under the replay's context: past the deadline
// Replay returns context.DeadlineExceeded, promptly, and leaves nothing
// running.
func TestReplayStopsWithItsContext(t *testing.T) {
	p := platform.RandomConnected(rand.New(rand.NewSource(2)), 32, 16, 5, 5, 0.15)
	res := mustSolve(t, steady.Spec{Problem: "broadcast", Root: p.Name(0)}, p)
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	rp, err := res.Replay(ctx)
	took := time.Since(start)
	if rp != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("replay %v, error %v; want none and context.DeadlineExceeded", rp, err)
	}
	if took > raceSlowdown*time.Second {
		t.Errorf("returned %v after a 100ms deadline", took)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("%d goroutines after Replay returned, %d before", n, baseline)
	}
}
