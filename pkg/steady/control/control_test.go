package control

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/pkg/steady"
	"repro/pkg/steady/control/forecast"
	"repro/pkg/steady/obs"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

// demoPlatform is the control-plane test fixture: a 3-node star whose
// master-slave LP has a unique optimum both nominally (throughput
// 7/4) and after the injected c(P1>P2)=4 shift (17/12), so schedules
// are comparable byte-for-byte across solve paths.
func demoPlatform() *platform.Platform {
	p := platform.New()
	p1 := p.AddNode("P1", platform.WInt(1))
	p2 := p.AddNode("P2", platform.WInt(2))
	p3 := p.AddNode("P3", platform.WInt(3))
	p.AddEdge(p1, p2, rat.FromInt(1))
	p.AddEdge(p1, p3, rat.FromInt(2))
	return p
}

func demoSpec() steady.Spec { return steady.Spec{Problem: "masterslave", Root: "P1"} }

func mustCreate(t *testing.T, m *Manager, id string) *Snapshot {
	t.Helper()
	snap, err := m.Create(context.Background(), id, demoSpec(), demoPlatform())
	if err != nil {
		t.Fatalf("Create(%q): %v", id, err)
	}
	return snap
}

// driftBatch is telemetry that shifts c(P1>P2) from 1 to 1.5: a 50%
// drift, well past the default threshold, yet small enough that the
// previous epoch's basis stays optimal (the re-solve warm-starts in 0
// exact pivots). 1.5 is exact in binary, so the estimated platform
// equals the true drifted platform fingerprint-for-fingerprint.
var driftBatch = []Observation{{From: "P1", To: "P2", Value: 1.5}}

func TestManagerLifecycle(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()

	snap := mustCreate(t, m, "demo")
	if snap.Epoch == nil || snap.Epoch.Version != 1 {
		t.Fatalf("create epoch = %+v, want version 1", snap.Epoch)
	}
	if snap.Epoch.Throughput != "7/4" {
		t.Fatalf("nominal throughput = %q, want 7/4", snap.Epoch.Throughput)
	}
	if snap.Epoch.Reason != "create" {
		t.Fatalf("reason = %q, want create", snap.Epoch.Reason)
	}
	if len(snap.Epoch.Links) != 2 || len(snap.Epoch.Nodes) != 3 {
		t.Fatalf("epoch has %d nodes, %d links; want 3, 2", len(snap.Epoch.Nodes), len(snap.Epoch.Links))
	}
	if snap.Epoch.Delta != nil {
		t.Fatalf("first epoch has a delta: %+v", snap.Epoch.Delta)
	}

	got, err := m.Get("demo")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got.Epoch.Version != 1 || got.Resolves != 1 {
		t.Fatalf("Get snapshot = version %d, resolves %d; want 1, 1", got.Epoch.Version, got.Resolves)
	}
	if ids := m.List(); len(ids) != 1 || ids[0] != "demo" {
		t.Fatalf("List = %v", ids)
	}

	if err := m.Remove("demo"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := m.Get("demo"); !errors.Is(err, ErrUnknownDeployment) {
		t.Fatalf("Get after Remove = %v, want ErrUnknownDeployment", err)
	}
	if err := m.Remove("demo"); !errors.Is(err, ErrUnknownDeployment) {
		t.Fatalf("double Remove = %v, want ErrUnknownDeployment", err)
	}
}

func TestCreateRejectsBadInput(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	ctx := context.Background()

	for _, id := range []string{"", "a b", "x/y", ".hidden", "-lead", string(make([]byte, 80))} {
		if _, err := m.Create(ctx, id, demoSpec(), demoPlatform()); !errors.Is(err, ErrBadDeployment) {
			t.Errorf("Create(id=%q) = %v, want ErrBadDeployment", id, err)
		}
	}
	if _, err := m.Create(ctx, "ok", steady.Spec{Problem: "no-such"}, demoPlatform()); !errors.Is(err, steady.ErrUnknownProblem) {
		t.Errorf("bad problem = %v, want ErrUnknownProblem", err)
	}
	if _, err := m.Create(ctx, "ok", demoSpec(), nil); !errors.Is(err, ErrBadDeployment) {
		t.Errorf("nil platform = %v, want ErrBadDeployment", err)
	}
	// A failed create must not leave a half-born deployment behind.
	if _, err := m.Create(ctx, "ghost", steady.Spec{Problem: "masterslave", Root: "NoSuchNode"}, demoPlatform()); err == nil {
		t.Fatal("create with unknown root succeeded")
	}
	if _, err := m.Get("ghost"); !errors.Is(err, ErrUnknownDeployment) {
		t.Errorf("half-born deployment visible: %v", err)
	}
}

func TestDeploymentCap(t *testing.T) {
	m := NewManager(Config{MaxDeployments: 2})
	defer m.Close()
	mustCreate(t, m, "a")
	mustCreate(t, m, "b")
	if _, err := m.Create(context.Background(), "c", demoSpec(), demoPlatform()); !errors.Is(err, ErrTooManyDeployments) {
		t.Fatalf("third create = %v, want ErrTooManyDeployments", err)
	}
	// Replacing an existing deployment stays within the cap.
	if _, err := m.Create(context.Background(), "b", demoSpec(), demoPlatform()); err != nil {
		t.Fatalf("replace at cap: %v", err)
	}
}

// TestTelemetryValidation table-tests every bad payload shape: the
// whole batch must be rejected (HTTP 400 upstream) and no forecaster
// may see any of it — including the valid observations riding along.
// Which values the guard refuses is adaptive.TestEstimatorGuard's
// table; here one hostile value, and the zero the simulator path
// reads as "nothing observed", prove the wire boundary applies it.
func TestTelemetryValidation(t *testing.T) {
	withForwarder := func() *platform.Platform {
		p := demoPlatform()
		f := p.AddNode("F", platform.WInf())
		p.AddEdge(0, f, rat.FromInt(1))
		return p
	}
	m := NewManager(Config{})
	defer m.Close()
	if _, err := m.Create(context.Background(), "demo", demoSpec(), withForwarder()); err != nil {
		t.Fatalf("create: %v", err)
	}

	valid := Observation{From: "P1", To: "P2", Value: 2}
	cases := map[string]struct {
		batch   []Observation
		wantErr error
	}{
		"empty batch":       {nil, ErrBadObservation},
		"unknown node":      {[]Observation{{Node: "P9", Value: 1}}, ErrBadObservation},
		"forwarder node":    {[]Observation{{Node: "F", Value: 1}}, ErrBadObservation},
		"unknown edge":      {[]Observation{{From: "P2", To: "P3", Value: 1}}, ErrBadObservation},
		"unknown endpoint":  {[]Observation{{From: "P1", To: "P9", Value: 1}}, ErrBadObservation},
		"node and edge":     {[]Observation{{Node: "P1", From: "P1", To: "P2", Value: 1}}, ErrBadObservation},
		"neither":           {[]Observation{{Value: 1}}, ErrBadObservation},
		"edge missing to":   {[]Observation{{From: "P1", Value: 1}}, ErrBadObservation},
		"NaN value":         {[]Observation{{Node: "P1", Value: math.NaN()}}, forecast.ErrBadMeasurement},
		"zero value":        {[]Observation{{Node: "P2", Value: 0}}, forecast.ErrBadMeasurement},
		"valid riding bad":  {[]Observation{valid, {Node: "P1", Value: math.NaN()}}, forecast.ErrBadMeasurement},
		"bad riding valid":  {[]Observation{{Node: "P9", Value: 1}, valid}, ErrBadObservation},
		"two distinct bads": {[]Observation{{Node: "P9", Value: 1}, {Node: "P1", Value: -1}}, ErrBadObservation},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			n, err := m.Observe("demo", tc.batch)
			if err == nil || n != 0 {
				t.Fatalf("Observe accepted bad batch (n=%d, err=%v)", n, err)
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("Observe error = %v, want %v in chain", err, tc.wantErr)
			}
		})
	}

	// Atomicity: none of the valid observations riding in rejected
	// batches reached a series.
	snap, err := m.Get("demo")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Observations != 0 {
		t.Fatalf("rejected batches leaked %d observations into forecasters", snap.Observations)
	}

	if _, err := m.Observe("nope", []Observation{valid}); !errors.Is(err, ErrUnknownDeployment) {
		t.Fatalf("Observe on unknown deployment = %v", err)
	}
	if n, err := m.Observe("demo", []Observation{valid, {Node: "P2", Value: 2.1}}); err != nil || n != 2 {
		t.Fatalf("valid batch rejected: n=%d err=%v", n, err)
	}
	snap, _ = m.Get("demo")
	if snap.Observations != 2 {
		t.Fatalf("accepted observations = %d, want 2", snap.Observations)
	}
}

// seriesState flattens every series of a deployment's estimator:
// forecast bits, chosen sub-predictor and count, per node then per edge.
func seriesState(m *Manager, id string) []string {
	d, _ := m.lookup(id)
	d.mu.Lock()
	defer d.mu.Unlock()
	base := d.est.Base()
	var out []string
	for i := 0; i < base.NumNodes(); i++ {
		v, name, n := d.est.NodeSeries(i)
		out = append(out, fmt.Sprintf("node %d: %#x %q %d", i, math.Float64bits(v), name, n))
	}
	for e := 0; e < base.NumEdges(); e++ {
		v, name, n := d.est.EdgeSeries(e)
		out = append(out, fmt.Sprintf("edge %d: %#x %q %d", e, math.Float64bits(v), name, n))
	}
	return out
}

// TestObserveTransactionalAtSize is the whole-batch contract at a size
// where validate-then-apply matters and the deployment's scratch does
// not fit: 10 000 valid observations followed by one bad one change no
// series, and the same 10 000 alone are all applied.
func TestObserveTransactionalAtSize(t *testing.T) {
	m := NewManager(Config{Epoch: time.Hour})
	defer m.Close()
	mustCreate(t, m, "demo")
	if _, err := m.Observe("demo", []Observation{{Node: "P2", Value: 2.25}, {From: "P1", To: "P3", Value: 1.75}}); err != nil {
		t.Fatal(err)
	}
	before := seriesState(m, "demo")

	big := make([]Observation, 0, 10001)
	for i := 0; i < 10000; i++ {
		v := 1 + float64(i%97)/64
		if i%3 == 0 {
			big = append(big, Observation{Node: "P3", Value: v})
		} else {
			big = append(big, Observation{From: "P1", To: "P2", Value: v})
		}
	}
	for name, last := range map[string]Observation{
		"unknown node": {Node: "P9", Value: 1},
		"bad value":    {Node: "P2", Value: math.Inf(1)},
	} {
		n, err := m.Observe("demo", append(big, last))
		if err == nil || n != 0 {
			t.Fatalf("%s: Observe accepted the batch (n=%d)", name, n)
		}
		if !strings.Contains(err.Error(), "observation 10000:") {
			t.Fatalf("%s: error does not name the bad observation: %v", name, err)
		}
		if after := seriesState(m, "demo"); !slices.Equal(before, after) {
			t.Fatalf("%s: a rejected batch moved a series:\nbefore %v\nafter  %v", name, before, after)
		}
	}

	if n, err := m.Observe("demo", big); err != nil || n != len(big) {
		t.Fatalf("valid batch: n=%d err=%v", n, err)
	}
	snap, err := m.Get("demo")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Observations != int64(2+len(big)) {
		t.Fatalf("observations = %d, want %d", snap.Observations, 2+len(big))
	}
	// A short batch after a long one lands on the right series: the
	// scratch is per batch, not remembered.
	if _, err := m.Observe("demo", []Observation{{Node: "P2", Value: 9}}); err != nil {
		t.Fatal(err)
	}
	if snap, _ = m.Get("demo"); snap.Nodes[1].Observations != 2 {
		t.Fatalf("P2 has %d observations, want 2", snap.Nodes[1].Observations)
	}
}

// TestObserveAllocations: a full batch — every node and edge once — is
// validated and applied without touching the heap.
func TestObserveAllocations(t *testing.T) {
	m := NewManager(Config{Epoch: time.Hour})
	defer m.Close()
	mustCreate(t, m, "demo")
	batch := []Observation{
		{Node: "P1", Value: 1}, {Node: "P2", Value: 2}, {Node: "P3", Value: 3},
		{From: "P1", To: "P2", Value: 1.5}, {From: "P1", To: "P3", Value: 2.5},
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := m.Observe("demo", batch); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("%.1f allocations per Observe, want 0", allocs)
	}
}

// TestDriftResolve is the §5.5 loop end to end in-process: telemetry
// shifts an edge cost 1.5x, the next tick re-solves warm from the
// previous basis, and the published epoch carries the drifted
// schedule plus a delta of exactly the changed rates.
func TestDriftResolve(t *testing.T) {
	m := NewManager(Config{Epoch: time.Second})
	defer m.Close()
	mustCreate(t, m, "demo")
	now := time.Now()

	if _, err := m.Observe("demo", driftBatch); err != nil {
		t.Fatalf("Observe: %v", err)
	}
	if n := m.Tick(context.Background(), now.Add(time.Second)); n != 1 {
		t.Fatalf("Tick published %d epochs, want 1", n)
	}
	snap, err := m.Get("demo")
	if err != nil {
		t.Fatal(err)
	}
	ep := snap.Epoch
	if ep.Version != 2 || ep.Reason != "drift" {
		t.Fatalf("epoch = version %d reason %q, want 2/drift", ep.Version, ep.Reason)
	}
	if ep.Throughput != "13/8" {
		t.Fatalf("drifted throughput = %q, want 13/8", ep.Throughput)
	}
	if !ep.WarmStarted {
		t.Fatal("drift re-solve did not warm-start from the previous basis")
	}
	if ep.Pivots > 2 {
		t.Fatalf("drift re-solve took %d exact pivots, want ~0", ep.Pivots)
	}
	if ep.MaxDrift < 0.45 || ep.MaxDrift > 0.55 {
		t.Fatalf("MaxDrift = %v, want ~0.5 (1 -> 1.5)", ep.MaxDrift)
	}
	if ep.Delta == nil || ep.Delta.FromVersion != 1 || !ep.Delta.ThroughputChanged {
		t.Fatalf("delta = %+v, want from_version 1 with throughput change", ep.Delta)
	}
	// Both edge rates move (the send budget is re-split) but only P3's
	// compute rate changes — P1 and the still-saturated P2 must stay
	// out of the delta.
	if len(ep.Delta.Links) != 2 {
		t.Fatalf("delta links = %+v, want both edges changed", ep.Delta.Links)
	}
	if len(ep.Delta.Nodes) != 1 || ep.Delta.Nodes[0].Name != "P3" {
		t.Fatalf("delta nodes = %+v, want exactly P3", ep.Delta.Nodes)
	}

	// The model now matches the telemetry: no further drift, no
	// further re-solves.
	if n := m.Tick(context.Background(), now.Add(2*time.Second)); n != 0 {
		t.Fatalf("steady tick published %d epochs, want 0", n)
	}

	// And the published schedule equals a fresh certified solve of
	// the drifted platform, byte for byte.
	drifted := platform.New()
	p1 := drifted.AddNode("P1", platform.WInt(1))
	p2 := drifted.AddNode("P2", platform.WInt(2))
	p3 := drifted.AddNode("P3", platform.WInt(3))
	drifted.AddEdge(p1, p2, rat.New(3, 2))
	drifted.AddEdge(p1, p3, rat.FromInt(2))
	solver, _ := steady.New(demoSpec())
	fresh, err := solver.Solve(context.Background(), drifted)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Fingerprint != ep.Fingerprint {
		t.Fatalf("estimated platform fingerprint %s != drifted platform %s", ep.Fingerprint, fresh.Fingerprint)
	}
	if fresh.Throughput.String() != ep.Throughput {
		t.Fatalf("throughput %s != fresh certified %s", ep.Throughput, fresh.Throughput)
	}
	for i, n := range fresh.Nodes {
		if ep.Nodes[i].Alpha != n.Alpha.String() {
			t.Fatalf("node %s alpha %s != fresh %s", n.Name, ep.Nodes[i].Alpha, n.Alpha)
		}
	}
	for i, l := range fresh.Links {
		if ep.Links[i].Busy != l.Busy.String() {
			t.Fatalf("link %s>%s busy %s != fresh %s", l.From, l.To, ep.Links[i].Busy, l.Busy)
		}
	}
}

func TestDriftBelowThresholdDoesNotResolve(t *testing.T) {
	m := NewManager(Config{Epoch: time.Second, DriftThreshold: 0.5})
	defer m.Close()
	mustCreate(t, m, "demo")
	// 1 -> 1.2 is a 20% change, under the 50% threshold.
	if _, err := m.Observe("demo", []Observation{{From: "P1", To: "P2", Value: 1.2}}); err != nil {
		t.Fatal(err)
	}
	if n := m.Tick(context.Background(), time.Now().Add(time.Minute)); n != 0 {
		t.Fatalf("sub-threshold drift published %d epochs", n)
	}
	snap, _ := m.Get("demo")
	if snap.DriftEvents != 0 || snap.Epoch.Version != 1 {
		t.Fatalf("snapshot = %d drift events, version %d; want 0, 1", snap.DriftEvents, snap.Epoch.Version)
	}
}

func TestMinResolveInterval(t *testing.T) {
	m := NewManager(Config{Epoch: time.Second, MinResolveInterval: 10 * time.Second})
	defer m.Close()
	mustCreate(t, m, "demo")
	now := time.Now()
	if _, err := m.Observe("demo", driftBatch); err != nil {
		t.Fatal(err)
	}
	// Drift is real but the interval has not elapsed: suppressed,
	// counted as a drift event.
	if n := m.Tick(context.Background(), now.Add(time.Second)); n != 0 {
		t.Fatalf("early tick published %d epochs", n)
	}
	snap, _ := m.Get("demo")
	if snap.DriftEvents != 1 || snap.Epoch.Version != 1 {
		t.Fatalf("after early tick: %d drift events, version %d; want 1, 1", snap.DriftEvents, snap.Epoch.Version)
	}
	// Once the interval elapses the re-solve fires.
	if n := m.Tick(context.Background(), now.Add(11*time.Second)); n != 1 {
		t.Fatalf("late tick published %d epochs, want 1", n)
	}
}

func TestResolveBudget(t *testing.T) {
	m := NewManager(Config{Epoch: time.Second, ResolveBudget: 1})
	defer m.Close()
	mustCreate(t, m, "a")
	mustCreate(t, m, "b")
	now := time.Now()
	for _, id := range []string{"a", "b"} {
		if _, err := m.Observe(id, driftBatch); err != nil {
			t.Fatal(err)
		}
	}
	// One budget slot, two drifting deployments: deterministic order
	// means "a" wins this tick, "b" the next.
	if n := m.Tick(context.Background(), now.Add(time.Second)); n != 1 {
		t.Fatalf("budgeted tick published %d epochs, want 1", n)
	}
	sa, _ := m.Get("a")
	sb, _ := m.Get("b")
	if sa.Epoch.Version != 2 || sb.Epoch.Version != 1 {
		t.Fatalf("after tick 1: a=v%d b=v%d; want 2, 1", sa.Epoch.Version, sb.Epoch.Version)
	}
	if n := m.Tick(context.Background(), now.Add(2*time.Second)); n != 1 {
		t.Fatalf("second tick published %d epochs, want 1", n)
	}
	sb, _ = m.Get("b")
	if sb.Epoch.Version != 2 {
		t.Fatalf("b not re-solved on second tick: v%d", sb.Epoch.Version)
	}
}

func TestReplaceResetsSeriesAndBumpsVersion(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	mustCreate(t, m, "demo")
	if _, err := m.Observe("demo", driftBatch); err != nil {
		t.Fatal(err)
	}
	sub, err := m.Watch("demo", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	<-sub.Events() // the v1 epoch

	snap, err := m.Create(context.Background(), "demo", demoSpec(), demoPlatform())
	if err != nil {
		t.Fatalf("replace: %v", err)
	}
	if snap.Epoch.Version != 2 || snap.Epoch.Reason != "replace" {
		t.Fatalf("replace epoch = v%d %q, want v2 replace", snap.Epoch.Version, snap.Epoch.Reason)
	}
	if snap.Observations != 0 {
		t.Fatalf("replace kept %d observations; series must reset", snap.Observations)
	}
	// Existing subscribers ride through a replace.
	select {
	case ep := <-sub.Events():
		if ep.Version != 2 || ep.Reason != "replace" {
			t.Fatalf("subscriber saw %+v", ep)
		}
	case <-time.After(time.Second):
		t.Fatal("subscriber did not receive the replace epoch")
	}
	// The old telemetry is gone: no drift on the next tick.
	if n := m.Tick(context.Background(), time.Now().Add(time.Hour)); n != 0 {
		t.Fatalf("replaced deployment still drifting: %d epochs", n)
	}
}

func TestComputeDelta(t *testing.T) {
	prev := &Epoch{
		Version:    3,
		Throughput: "7/4",
		Nodes:      []NodeRate{{Name: "P1", Alpha: "1", Rate: "1"}, {Name: "P2", Alpha: "1", Rate: "1/2"}},
		Links:      []LinkRate{{From: "P1", To: "P2", Busy: "1"}},
	}
	next := &Epoch{
		Version:    4,
		Throughput: "7/4",
		Nodes:      []NodeRate{{Name: "P1", Alpha: "1", Rate: "1"}, {Name: "P2", Alpha: "1/2", Rate: "1/4"}},
		Links:      []LinkRate{{From: "P1", To: "P2", Busy: "1"}},
	}
	d := computeDelta(prev, next)
	if d == nil || d.FromVersion != 3 || d.ThroughputChanged {
		t.Fatalf("delta = %+v", d)
	}
	if len(d.Nodes) != 1 || d.Nodes[0].Name != "P2" || len(d.Links) != 0 {
		t.Fatalf("delta contents = %+v", d)
	}
	// Topology change: no delta.
	if d := computeDelta(prev, &Epoch{Nodes: next.Nodes[:1], Links: next.Links}); d != nil {
		t.Fatalf("topology-changing delta = %+v, want nil", d)
	}
}

func TestConcurrentTelemetryAndTicks(t *testing.T) {
	m := NewManager(Config{Epoch: time.Second})
	defer m.Close()
	mustCreate(t, m, "demo")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := 1 + float64((g*31+i)%40)/10 // 1.0 .. 4.9
				_, _ = m.Observe("demo", []Observation{{From: "P1", To: "P2", Value: v}})
			}
		}(g)
	}
	base := time.Now()
	for i := 0; i < 5; i++ {
		m.Tick(context.Background(), base.Add(time.Duration(i+1)*time.Second))
	}
	close(stop)
	wg.Wait()
	if _, err := m.Get("demo"); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkControlEpoch measures one full control-plane epoch under
// drift: telemetry ingest, drift detection, rational model rebuild,
// warm re-solve through the cache, delta computation, and publish to
// one subscriber.
func BenchmarkControlEpoch(b *testing.B) {
	m := NewManager(Config{Epoch: time.Second, DriftThreshold: 1e-9})
	defer m.Close()
	if _, err := m.Create(context.Background(), "bench", demoSpec(), demoPlatform()); err != nil {
		b.Fatal(err)
	}
	sub, err := m.Watch("bench", 0)
	if err != nil {
		b.Fatal(err)
	}
	defer sub.Close()
	<-sub.Events()
	now := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh cost every iteration (1.5 .. 2.5 in 1/512 steps)
		// forces a real re-solve on most ticks rather than a cache
		// hit on a previously seen model.
		v := 1.5 + float64(i%512)/512
		if _, err := m.Observe("bench", []Observation{{From: "P1", To: "P2", Value: v}}); err != nil {
			b.Fatal(err)
		}
		now = now.Add(time.Second)
		if n := m.Tick(context.Background(), now); n == 1 {
			<-sub.Events()
		}
	}
}

func TestManagerCloseIdempotent(t *testing.T) {
	m := NewManager(Config{})
	mustCreate(t, m, "demo")
	sub, err := m.Watch("demo", 0)
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	m.Close()
	// Drain: the v1 epoch, then the channel closes at shutdown.
	for range sub.Events() {
	}
	// A never-started manager closes cleanly too.
	NewManager(Config{}).Close()
}

func TestWatchUnknownDeployment(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	if _, err := m.Watch("nope", 0); !errors.Is(err, ErrUnknownDeployment) {
		t.Fatalf("Watch = %v, want ErrUnknownDeployment", err)
	}
}

// driftTo publishes epochs until the deployment reaches the given
// version, doubling the observed edge cost each round so every tick
// sees unmistakable drift (pair with a small Config.DriftThreshold —
// the forecaster battery lags a step-change, so the predicted move is
// a fraction of the 2x jump).
func driftTo(t *testing.T, m *Manager, id string, upto uint64) {
	t.Helper()
	now := time.Now()
	snap, err := m.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	for v := snap.Epoch.Version; v < upto; v++ {
		val := float64(uint64(1) << v)
		if _, err := m.Observe(id, []Observation{{From: "P1", To: "P2", Value: val}}); err != nil {
			t.Fatal(err)
		}
		// Tick times scale with the version so repeated driftTo calls
		// against one manager keep moving the clock forward past
		// MinResolveInterval.
		tick := now.Add(time.Duration(v) * 24 * time.Hour)
		if n := m.Tick(context.Background(), tick); n != 1 {
			t.Fatalf("drift round v%d published %d", v, n)
		}
	}
}

func TestWatchReplayAndResync(t *testing.T) {
	m := NewManager(Config{History: 3, DriftThreshold: 1e-6})
	defer m.Close()
	mustCreate(t, m, "demo")
	driftTo(t, m, "demo", 6) // history now holds v4, v5, v6

	// Fresh subscriber: current epoch only.
	fresh, err := m.Watch("demo", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if ep := <-fresh.Events(); ep.Version != 6 || ep.Resync {
		t.Fatalf("fresh subscriber got v%d (resync=%v), want clean v6", ep.Version, ep.Resync)
	}

	// Resume from v4: v5 and v6 replay in order, with deltas intact.
	resume, err := m.Watch("demo", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer resume.Close()
	for _, want := range []uint64{5, 6} {
		ep := <-resume.Events()
		if ep.Version != want || ep.Resync || ep.Delta == nil {
			t.Fatalf("replay got v%d (resync=%v, delta=%v), want clean v%d with delta", ep.Version, ep.Resync, ep.Delta, want)
		}
	}

	// Resume from v1: that history is gone — one Resync epoch, no
	// delta, full schedule.
	stale, err := m.Watch("demo", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()
	ep := <-stale.Events()
	if ep.Version != 6 || !ep.Resync || ep.Delta != nil {
		t.Fatalf("stale resume got v%d (resync=%v, delta=%v), want v6 resync without delta", ep.Version, ep.Resync, ep.Delta)
	}
	if len(ep.Links) != 2 {
		t.Fatalf("resync epoch not self-contained: %+v", ep)
	}

	// Up to date: nothing pending, next epoch arrives live.
	current, err := m.Watch("demo", 6)
	if err != nil {
		t.Fatal(err)
	}
	defer current.Close()
	select {
	case ep := <-current.Events():
		t.Fatalf("up-to-date subscriber got unsolicited v%d", ep.Version)
	default:
	}
	driftTo(t, m, "demo", 7)
	if ep := <-current.Events(); ep.Version != 7 {
		t.Fatalf("live epoch = v%d, want 7", ep.Version)
	}
}

func TestSlowConsumerEviction(t *testing.T) {
	m := NewManager(Config{WatchBuffer: 1, DriftThreshold: 1e-6})
	defer m.Close()
	mustCreate(t, m, "demo")

	slow, err := m.Watch("demo", 0) // buffer holds v1 + 1 live epoch
	if err != nil {
		t.Fatal(err)
	}
	fast, err := m.Watch("demo", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	<-fast.Events() // fast keeps draining; slow never reads

	driftTo(t, m, "demo", 3) // two more epochs: second overflows slow
	if ep := <-fast.Events(); ep.Version != 2 {
		t.Fatalf("fast subscriber got v%d, want 2", ep.Version)
	}
	if ep := <-fast.Events(); ep.Version != 3 {
		t.Fatalf("fast subscriber got v%d, want 3", ep.Version)
	}

	// The slow subscriber was evicted: buffered epochs then close.
	got := 0
	for range slow.Events() {
		got++
	}
	if got != 2 {
		t.Fatalf("slow subscriber drained %d epochs before eviction, want 2 (v1 + v2)", got)
	}
	snap, _ := m.Get("demo")
	if snap.Watchers != 1 {
		t.Fatalf("watchers after eviction = %d, want 1", snap.Watchers)
	}
	// Close after eviction is a harmless no-op.
	slow.Close()

	// The evicted client resumes with its last seen version and gets
	// the missed epoch.
	back, err := m.Watch("demo", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if ep := <-back.Events(); ep.Version != 3 {
		t.Fatalf("resumed subscriber got v%d, want 3", ep.Version)
	}
}

func TestWatcherCap(t *testing.T) {
	m := NewManager(Config{MaxWatchers: 2})
	defer m.Close()
	mustCreate(t, m, "demo")
	a, err := m.Watch("demo", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Watch("demo", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Watch("demo", 0); !errors.Is(err, ErrTooManyWatchers) {
		t.Fatalf("third watcher = %v, want ErrTooManyWatchers", err)
	}
	// Closing frees the slot.
	a.Close()
	if _, err := m.Watch("demo", 0); err != nil {
		t.Fatalf("watch after close: %v", err)
	}
}

func TestBackgroundLoopFiresResolves(t *testing.T) {
	if testing.Short() {
		t.Skip("timer-driven")
	}
	m := NewManager(Config{Epoch: 20 * time.Millisecond, MinResolveInterval: time.Nanosecond})
	defer m.Close()
	mustCreate(t, m, "demo")
	if _, err := m.Observe("demo", driftBatch); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		snap, err := m.Get("demo")
		if err != nil {
			t.Fatal(err)
		}
		if snap.Epoch.Version >= 2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("background loop never re-solved the drifted deployment")
}

func TestSnapshotModelState(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	mustCreate(t, m, "demo")
	if _, err := m.Observe("demo", []Observation{{From: "P1", To: "P2", Value: 4}, {Node: "P2", Value: 2.5}}); err != nil {
		t.Fatal(err)
	}
	m.Tick(context.Background(), time.Now().Add(time.Hour))
	snap, err := m.Get("demo")
	if err != nil {
		t.Fatal(err)
	}
	var link *ModelLink
	for i := range snap.Links {
		if snap.Links[i].From == "P1" && snap.Links[i].To == "P2" {
			link = &snap.Links[i]
		}
	}
	if link == nil || link.Nominal != "1" || link.Current != "4" || link.Observations != 1 {
		t.Fatalf("model link = %+v, want nominal 1, current 4, 1 observation", link)
	}
	if link.Predictor == "" || link.Forecast != 4 {
		t.Fatalf("model link forecast state = %+v", link)
	}
	var node *ModelNode
	for i := range snap.Nodes {
		if snap.Nodes[i].Name == "P2" {
			node = &snap.Nodes[i]
		}
	}
	if node == nil || node.Nominal != "2" || node.Current != "5/2" || node.Observations != 1 {
		t.Fatalf("model node = %+v, want nominal 2, current 5/2", node)
	}
}

// TestSharedCacheAcrossDeployments: the manager's LP cache is shared,
// so a second deployment on an already-solved platform publishes its
// first epoch straight from the cache — same fingerprint, zero solve.
func TestSharedCacheAcrossDeployments(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	a := mustCreate(t, m, "a")
	if a.Epoch.CacheHit {
		t.Fatalf("first solve reported a cache hit: %+v", a.Epoch)
	}
	b := mustCreate(t, m, "b")
	if !b.Epoch.CacheHit {
		t.Fatalf("identical platform was not served from the cache: %+v", b.Epoch)
	}
	if b.Epoch.Fingerprint != a.Epoch.Fingerprint || b.Epoch.Throughput != a.Epoch.Throughput {
		t.Fatalf("cached epoch diverged: %+v vs %+v", b.Epoch, a.Epoch)
	}
	if b.Epoch.Version != 1 {
		t.Fatalf("fresh deployment started at version %d", b.Epoch.Version)
	}
}

// bigPlatform is a 4-node star: same names as demoPlatform for P1-P3
// plus a P4 arm, so it shares observable series with the demo star but
// has an incompatible topology (no delta between the two is possible).
func bigPlatform() *platform.Platform {
	p := platform.New()
	p1 := p.AddNode("P1", platform.WInt(1))
	p2 := p.AddNode("P2", platform.WInt(2))
	p3 := p.AddNode("P3", platform.WInt(3))
	p4 := p.AddNode("P4", platform.WInt(4))
	p.AddEdge(p1, p2, rat.FromInt(1))
	p.AddEdge(p1, p3, rat.FromInt(2))
	p.AddEdge(p1, p4, rat.FromInt(3))
	return p
}

// TestReplaceTopologyChangeMarksResync pins the signal delta-tracking
// subscribers rely on: a replace whose new platform cannot be diffed
// against the old one (topology changed) publishes its epoch with
// Delta nil and Resync set, while a same-topology replace keeps a
// normal delta and no resync.
func TestReplaceTopologyChangeMarksResync(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	mustCreate(t, m, "demo")
	sub, err := m.Watch("demo", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	<-sub.Events() // the v1 epoch

	snap, err := m.Create(context.Background(), "demo", demoSpec(), bigPlatform())
	if err != nil {
		t.Fatalf("replace: %v", err)
	}
	if snap.Epoch.Delta != nil || !snap.Epoch.Resync {
		t.Fatalf("topology-changing replace epoch: delta=%+v resync=%v; want nil delta, resync",
			snap.Epoch.Delta, snap.Epoch.Resync)
	}
	select {
	case ep := <-sub.Events():
		if ep.Version != 2 || ep.Delta != nil || !ep.Resync {
			t.Fatalf("subscriber saw v%d delta=%+v resync=%v; want v2, nil delta, resync",
				ep.Version, ep.Delta, ep.Resync)
		}
	case <-time.After(time.Second):
		t.Fatal("subscriber did not receive the replace epoch")
	}

	// Same-topology replace: a delta is possible, so no resync.
	snap, err = m.Create(context.Background(), "demo", demoSpec(), bigPlatform())
	if err != nil {
		t.Fatalf("same-topology replace: %v", err)
	}
	if snap.Epoch.Delta == nil || snap.Epoch.Resync {
		t.Fatalf("same-topology replace epoch: delta=%+v resync=%v; want delta, no resync",
			snap.Epoch.Delta, snap.Epoch.Resync)
	}
}

// TestReplaceDuringTickResolve reproduces the Tick/replace race
// deterministically: a replace to an incompatible platform is parked
// inside its solve (holding solveMu) while Tick evaluates drift on the
// platform about to be retired. Before Tick pinned its estimate under
// solveMu it would publish that stale estimate over the replacement —
// the model sized to the old topology, the series to the new — and the
// next snapshot or drift scan indexed out of range and crashed the
// background loop. Now Tick re-checks under solveMu and skips.
func TestReplaceDuringTickResolve(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var gateBig atomic.Bool
	solve := func(ctx context.Context, key string, solver steady.Solver, p *platform.Platform, extra ...steady.SolveOption) (*steady.Result, bool, error) {
		if gateBig.Load() && p.NumNodes() == 4 {
			entered <- struct{}{}
			<-release
		}
		res, err := solver.Solve(ctx, p, extra...)
		return res, false, err
	}
	m := NewManager(Config{
		DriftThreshold:     1e-9,
		MinResolveInterval: time.Nanosecond,
		Solve:              solve,
	})
	defer m.Close()
	mustCreate(t, m, "demo")
	if _, err := m.Observe("demo", driftBatch); err != nil {
		t.Fatal(err)
	}

	gateBig.Store(true)
	repDone := make(chan struct{})
	go func() {
		defer close(repDone)
		if _, err := m.Create(context.Background(), "demo", demoSpec(), bigPlatform()); err != nil {
			t.Errorf("replace: %v", err)
		}
	}()
	<-entered // the replace holds solveMu; the 4-node star is not yet installed

	tickDone := make(chan struct{})
	go func() {
		defer close(tickDone)
		m.Tick(context.Background(), time.Now().Add(time.Hour))
	}()
	// Let Tick see the drifted 3-node platform and block on solveMu,
	// then let the replace install the 4-node star under it.
	time.Sleep(50 * time.Millisecond)
	gateBig.Store(false)
	close(release)
	<-repDone
	<-tickDone

	// The snapshot must be internally consistent: 4-node base, 4-node
	// current model, fresh series reporting no drift.
	snap, err := m.Get("demo")
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Nodes) != 4 || len(snap.Links) != 3 {
		t.Fatalf("snapshot has %d nodes, %d links; want 4, 3", len(snap.Nodes), len(snap.Links))
	}
	if snap.Epoch.Reason != "replace" {
		t.Fatalf("current epoch reason = %q, want replace (the stale drift epoch must not publish)", snap.Epoch.Reason)
	}
	if n := m.Tick(context.Background(), time.Now().Add(2*time.Hour)); n != 0 {
		t.Fatalf("replaced deployment still drifting: %d epochs", n)
	}
}

// parkedInCreate reports how many goroutines are parked on a mutex
// inside Manager.Create. With the registry lock free that mutex is a
// deployment's solveMu, and the test below has to know a second Create
// is past the registry check before it lets the first one fail;
// Create offers no other signal.
func parkedInCreate() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "[sync.Mutex.Lock") && strings.Contains(g, "(*Manager).Create(") {
			n++
		}
	}
	return n
}

// TestFailedCreateDoesNotOrphanSibling: two Creates of one new id share
// a deployment entry; the first to hold solveMu fails and drops the
// half-born entry from the registry, and the second — already past the
// registry check, waiting on solveMu — then solves and publishes epoch
// 1. Before Create re-verified its registration it returned that
// snapshot for a deployment Get answered ErrUnknownDeployment for and
// Tick never visited.
func TestFailedCreateDoesNotOrphanSibling(t *testing.T) {
	firstIn := make(chan struct{})
	failFirst := make(chan struct{})
	releaseSecond := make(chan struct{})
	var calls atomic.Int32
	solve := func(ctx context.Context, key string, solver steady.Solver, p *platform.Platform, extra ...steady.SolveOption) (*steady.Result, bool, error) {
		if calls.Add(1) == 1 {
			close(firstIn)
			<-failFirst
			return nil, false, errors.New("injected solve failure")
		}
		<-releaseSecond
		res, err := solver.Solve(ctx, p, extra...)
		return res, false, err
	}
	m := NewManager(Config{Solve: solve})
	defer m.Close()

	type outcome struct {
		snap *Snapshot
		err  error
	}
	create := func(out chan<- outcome) {
		snap, err := m.Create(context.Background(), "demo", demoSpec(), demoPlatform())
		out <- outcome{snap, err}
	}
	first, second := make(chan outcome, 1), make(chan outcome, 1)
	go create(first)
	<-firstIn // the first Create holds solveMu, inside its solve
	go create(second)
	for parkedInCreate() == 0 {
		runtime.Gosched()
	}
	close(failFirst)
	if o := <-first; o.err == nil {
		t.Fatal("first Create survived its injected solve failure")
	}
	close(releaseSecond)
	o := <-second
	if o.err != nil {
		t.Fatalf("second Create: %v", o.err)
	}
	if o.snap.Epoch.Version != 1 || o.snap.Epoch.Reason != "create" {
		t.Fatalf("second Create published v%d %q, want v1 create", o.snap.Epoch.Version, o.snap.Epoch.Reason)
	}
	if _, err := m.Get("demo"); err != nil {
		t.Fatalf("Get after a successful Create: %v", err)
	}
	// ... and the loop sees it.
	if _, err := m.Observe("demo", driftBatch); err != nil {
		t.Fatal(err)
	}
	if n := m.Tick(context.Background(), time.Now().Add(time.Hour)); n != 1 {
		t.Fatalf("Tick published %d epochs for the surviving deployment, want 1", n)
	}
}

// TestConcurrentReplaceAndTicks races topology-flipping replaces
// against drift-triggered re-solves and snapshot reads. Before Tick
// pinned its estimate under solveMu, a replace could land between
// Tick's estimate and its publish, leaving the model sized to the
// retired topology while the series used the new one — the next drift
// scan or snapshot then indexed out of range and crashed the
// background loop. Run under -race.
func TestConcurrentReplaceAndTicks(t *testing.T) {
	// A deliberately slow SolveFunc stretches the time Create holds
	// solveMu before installing the new platform — exactly when a racy
	// Tick would build its estimate from the platform about to be
	// retired.
	slow := func(ctx context.Context, key string, solver steady.Solver, p *platform.Platform, extra ...steady.SolveOption) (*steady.Result, bool, error) {
		time.Sleep(200 * time.Microsecond)
		res, err := solver.Solve(ctx, p, extra...)
		return res, false, err
	}
	m := NewManager(Config{
		Epoch:              time.Second,
		MinResolveInterval: time.Nanosecond,
		DriftThreshold:     1e-9,
		Solve:              slow,
	})
	defer m.Close()
	mustCreate(t, m, "demo")

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(2)
	go func() { // flip the platform between the 3- and 4-node stars
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p := demoPlatform()
			if i%2 == 1 {
				p = bigPlatform()
			}
			if _, err := m.Create(context.Background(), "demo", demoSpec(), p); err != nil {
				t.Errorf("replace: %v", err)
				return
			}
		}
	}()
	go func() { // telemetry on both shared and big-only series
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			v := 1.25 + float64(i%5)/8
			_, _ = m.Observe("demo", []Observation{{From: "P1", To: "P2", Value: v}})
			_, _ = m.Observe("demo", []Observation{{From: "P1", To: "P3", Value: v + 1}})
			// Only valid while the 4-node star is installed; rejected
			// (whole-batch) otherwise, which is exactly the point: its
			// series exists in one topology and not the other.
			_, _ = m.Observe("demo", []Observation{{From: "P1", To: "P4", Value: v + 2}})
		}
	}()

	base := time.Now()
	for i := 0; i < 150; i++ {
		m.Tick(context.Background(), base.Add(time.Duration(i+1)*time.Second))
		if _, err := m.Get("demo"); err != nil {
			t.Fatalf("Get during churn: %v", err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestWatchRemoveRace races Watch against Remove: a subscription must
// either fail with ErrUnknownDeployment or end up on a deployment
// whose removal closes it. Before Watch re-verified its registration,
// a Remove landing between lookup and the subscriber add left the sub
// on an orphaned deployment — open forever, delivering nothing.
func TestWatchRemoveRace(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()

	var subs []*Subscription
	for i := 0; i < 500; i++ {
		mustCreate(t, m, "demo")
		start := make(chan struct{})
		done := make(chan struct{})
		go func() {
			<-start
			_ = m.Remove("demo")
			close(done)
		}()
		close(start)
		if sub, err := m.Watch("demo", 0); err == nil {
			subs = append(subs, sub)
		} else if !errors.Is(err, ErrUnknownDeployment) {
			t.Fatalf("Watch: %v", err)
		}
		<-done
	}

	// Every subscription Watch returned was registered when its Remove
	// had not yet swept subscribers, so that Remove must have closed it.
	for i, sub := range subs {
		deadline := time.After(2 * time.Second)
	drain:
		for {
			select {
			case _, open := <-sub.Events():
				if !open {
					break drain
				}
			case <-deadline:
				t.Fatalf("subscription %d orphaned: channel never closed", i)
			}
		}
	}
}

var _ = fmt.Sprintf // keep fmt handy for debugging edits

// TestPanickingResolveIsSkipped: the epoch loop runs on a goroutine
// nothing guards, so a panic inside one deployment's drift re-solve
// used to end the process. It is now that deployment's failed re-solve:
// counted, its previous epoch still current, the other deployments of
// the same tick re-solved, and its own next tick free to try again
// (solveMu is not left held).
func TestPanickingResolveIsSkipped(t *testing.T) {
	var calls atomic.Int32
	solve := func(ctx context.Context, key string, solver steady.Solver, p *platform.Platform, extra ...steady.SolveOption) (*steady.Result, bool, error) {
		if calls.Add(1) == 3 { // two creates, then a-panics' re-solve
			panic("injected solver panic")
		}
		res, err := solver.Solve(ctx, p, extra...)
		return res, false, err
	}
	m := NewManager(Config{Epoch: time.Hour, Solve: solve, Obs: obs.New()})
	defer m.Close()
	for _, id := range []string{"a-panics", "b-fine"} {
		mustCreate(t, m, id)
		if _, err := m.Observe(id, driftBatch); err != nil {
			t.Fatal(err)
		}
	}
	version := func(id string) uint64 {
		t.Helper()
		snap, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		return snap.Epoch.Version
	}

	now := time.Now().Add(2 * time.Hour)
	if n := m.Tick(context.Background(), now); n != 1 {
		t.Fatalf("Tick published %d epochs, want 1 (b-fine; a-panics skipped)", n)
	}
	if a, b := version("a-panics"), version("b-fine"); a != 1 || b != 2 {
		t.Fatalf("versions after the panic: a-panics v%d, b-fine v%d; want v1 and v2", a, b)
	}
	if n := m.metrics.resolveErrs.Value(); n != 1 {
		t.Fatalf("steady_control_resolve_errors_total = %d, want 1", n)
	}
	if n := m.Tick(context.Background(), now.Add(2*time.Hour)); n != 1 {
		t.Fatalf("the tick after the panic published %d epochs, want 1 (a-panics)", n)
	}
	if a := version("a-panics"); a != 2 {
		t.Fatalf("a-panics is on v%d after its retry, want v2", a)
	}
}
