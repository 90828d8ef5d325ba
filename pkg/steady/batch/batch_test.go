package batch_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/pkg/steady"
	"repro/pkg/steady/batch"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

// blockingSolver counts how many Solve calls are running at once and
// releases them only when enough have gathered, proving the engine
// actually runs jobs concurrently (not just queues them).
type blockingSolver struct {
	mu      sync.Mutex
	running int
	peak    int
	need    int
	release chan struct{}
}

func (s *blockingSolver) Name() string { return "blocking" }

func (s *blockingSolver) Solve(ctx context.Context, p *platform.Platform, _ ...steady.SolveOption) (*steady.Result, error) {
	s.mu.Lock()
	s.running++
	if s.running > s.peak {
		s.peak = s.running
	}
	if s.peak >= s.need {
		select {
		case <-s.release:
		default:
			close(s.release)
		}
	}
	s.mu.Unlock()

	select {
	case <-s.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}

	s.mu.Lock()
	s.running--
	s.mu.Unlock()
	return &steady.Result{Solver: "blocking", Throughput: rat.One()}, nil
}

// distinctPlatforms returns n platforms with pairwise distinct
// fingerprints, so every job is a cache miss.
func distinctPlatforms(n int) []*platform.Platform {
	out := make([]*platform.Platform, n)
	for i := range out {
		p := platform.New()
		m := p.AddNode("M", platform.WInt(1))
		w := p.AddNode("W", platform.WInt(int64(i)+1))
		p.AddEdge(m, w, rat.One())
		out[i] = p
	}
	return out
}

// TestConcurrentSolves is the acceptance check for the batch engine:
// at least 4 platforms are genuinely in flight at the same time.
func TestConcurrentSolves(t *testing.T) {
	const n = 4
	solver := &blockingSolver{need: n, release: make(chan struct{})}
	var jobs []batch.Job
	for i, p := range distinctPlatforms(n) {
		jobs = append(jobs, batch.Job{ID: fmt.Sprintf("j%d", i), Platform: p, Solver: solver})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	eng := batch.New(n)
	outcomes := eng.Run(ctx, jobs)
	for _, o := range outcomes {
		if o.Err != nil {
			t.Fatalf("job %s: %v", o.JobID, o.Err)
		}
	}
	if solver.peak < n {
		t.Fatalf("peak concurrency %d, want >= %d", solver.peak, n)
	}
}

// TestCacheHits submits duplicate platforms and verifies the LP is
// solved once per distinct (platform, solver) pair, with every
// duplicate served from the cache and equal to the original.
func TestCacheHits(t *testing.T) {
	solver, err := steady.New(steady.Spec{Problem: "masterslave"})
	if err != nil {
		t.Fatal(err)
	}
	base := distinctPlatforms(3)
	var jobs []batch.Job
	for round := 0; round < 3; round++ {
		for i, p := range base {
			jobs = append(jobs, batch.Job{ID: fmt.Sprintf("r%d-p%d", round, i), Platform: p, Solver: solver})
		}
	}

	eng := batch.New(4)
	outcomes := eng.Run(context.Background(), jobs)

	byKey := map[string]rat.Rat{}
	hits := 0
	for _, o := range outcomes {
		if o.Err != nil {
			t.Fatalf("job %s: %v", o.JobID, o.Err)
		}
		if o.CacheHit {
			hits++
		}
		if prev, ok := byKey[o.Key]; ok {
			if !prev.Equal(o.Result.Throughput) {
				t.Fatalf("key %s: throughput %v != cached %v", o.Key, o.Result.Throughput, prev)
			}
		} else {
			byKey[o.Key] = o.Result.Throughput
		}
	}
	st := eng.Stats()
	if st.Solves != int64(len(base)) {
		t.Fatalf("Solves = %d, want %d", st.Solves, len(base))
	}
	if want := int64(len(jobs) - len(base)); st.CacheHits != want || int64(hits) != want {
		t.Fatalf("CacheHits = %d (outcomes: %d), want %d", st.CacheHits, hits, want)
	}

	// A second Run on the same engine is served entirely from cache.
	again := eng.Run(context.Background(), jobs[:len(base)])
	for _, o := range again {
		if !o.CacheHit {
			t.Fatalf("job %s missed a warm cache", o.JobID)
		}
	}
}

func TestRunPreservesJobOrder(t *testing.T) {
	solver, _ := steady.New(steady.Spec{Problem: "masterslave"})
	var jobs []batch.Job
	for i, p := range distinctPlatforms(6) {
		jobs = append(jobs, batch.Job{ID: fmt.Sprintf("j%d", i), Platform: p, Solver: solver})
	}
	outcomes := batch.New(3).Run(context.Background(), jobs)
	for i, o := range outcomes {
		if o.JobID != jobs[i].ID {
			t.Fatalf("outcome %d is %s, want %s", i, o.JobID, jobs[i].ID)
		}
	}
}

func TestCancelledContext(t *testing.T) {
	solver, _ := steady.New(steady.Spec{Problem: "masterslave"})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var jobs []batch.Job
	for i, p := range distinctPlatforms(4) {
		jobs = append(jobs, batch.Job{ID: fmt.Sprintf("j%d", i), Platform: p, Solver: solver})
	}
	eng := batch.New(2)
	outcomes := eng.Run(ctx, jobs)
	for _, o := range outcomes {
		if o.Err == nil {
			t.Fatalf("job %s succeeded under a canceled context", o.JobID)
		}
	}
	// The canceled run must not have poisoned the cache.
	good := eng.Run(context.Background(), jobs)
	for _, o := range good {
		if o.Err != nil {
			t.Fatalf("job %s after cancellation: %v", o.JobID, o.Err)
		}
	}
}

// TestCacheBound verifies eviction: with capacity 1 and sequential
// jobs, only the most recent platform stays cached, so re-running the
// older ones solves them again instead of growing memory.
func TestCacheBound(t *testing.T) {
	solver, _ := steady.New(steady.Spec{Problem: "masterslave"})
	plats := distinctPlatforms(5)
	var jobs []batch.Job
	for i, p := range plats {
		jobs = append(jobs, batch.Job{ID: fmt.Sprintf("j%d", i), Platform: p, Solver: solver})
	}
	eng := batch.NewBounded(1, 1)
	eng.Run(context.Background(), jobs)
	if st := eng.Stats(); st.Solves != 5 || st.CacheHits != 0 {
		t.Fatalf("first pass stats = %+v", st)
	}
	// Last platform survived; the earlier ones were evicted.
	last := eng.Run(context.Background(), jobs[4:])
	if !last[0].CacheHit {
		t.Fatalf("most recent platform was evicted")
	}
	again := eng.Run(context.Background(), jobs[:4])
	for _, o := range again {
		if o.CacheHit {
			t.Fatalf("job %s hit a cache that should have evicted it", o.JobID)
		}
		if o.Err != nil {
			t.Fatalf("job %s: %v", o.JobID, o.Err)
		}
	}
}

// TestNameEscaping guards the cache key against node names that
// contain the spec-name separator characters: the two specs below
// would collide if names were joined unescaped.
func TestNameEscaping(t *testing.T) {
	a, err := steady.New(steady.Spec{Problem: "scatter", Root: "A", Targets: []string{"B", "C"}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := steady.New(steady.Spec{Problem: "scatter", Root: "A", Targets: []string{"B+C"}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() == b.Name() {
		t.Fatalf("distinct specs share name %q", a.Name())
	}
}

func TestInvalidJob(t *testing.T) {
	out := batch.New(1).Run(context.Background(), []batch.Job{{ID: "bad"}})
	if out[0].Err == nil {
		t.Fatalf("nil platform/solver accepted")
	}
}

func TestJSONAndCSVOutput(t *testing.T) {
	solver, _ := steady.New(steady.Spec{Problem: "masterslave"})
	p := distinctPlatforms(1)[0]
	jobs := []batch.Job{
		{ID: "a", Platform: p, Solver: solver},
		{ID: "b", Platform: p, Solver: solver}, // duplicate: cache hit
	}
	outcomes := batch.New(1).Run(context.Background(), jobs)

	var jbuf bytes.Buffer
	if err := batch.WriteJSON(&jbuf, outcomes); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jbuf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("JSONL lines = %d, want 2", len(lines))
	}
	var rec batch.Record
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatalf("bad JSONL: %v", err)
	}
	if rec.Job != "b" || !rec.CacheHit || rec.Tput == "" {
		t.Fatalf("record = %+v", rec)
	}

	var cbuf bytes.Buffer
	if err := batch.WriteCSV(&cbuf, outcomes); err != nil {
		t.Fatal(err)
	}
	csv := cbuf.String()
	if !strings.HasPrefix(csv, "job,solver,platform,throughput") {
		t.Fatalf("CSV missing header:\n%s", csv)
	}
	if got := strings.Count(strings.TrimSpace(csv), "\n"); got != 2 {
		t.Fatalf("CSV data rows = %d, want 2:\n%s", got, csv)
	}
}
