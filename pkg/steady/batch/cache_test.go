package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/pkg/steady"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

// fingerprintKeys returns n cache keys built from n platforms with
// pairwise distinct fingerprints, as the engine would produce them.
func fingerprintKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		p := platform.New()
		m := p.AddNode("M", platform.WInt(1))
		w := p.AddNode("W", platform.WInt(int64(i)+1))
		p.AddEdge(m, w, rat.One())
		keys[i] = Key(steady.Fingerprint(p), "masterslave")
	}
	return keys
}

// TestCacheShardDistribution inserts many real fingerprint keys and
// checks the hash spreads them over every shard: no shard may be
// empty or hold more than a small multiple of its fair share, or the
// sharding would not relieve contention.
func TestCacheShardDistribution(t *testing.T) {
	const n, shards = 512, 8
	c := NewCache(shards, 0)
	res := &steady.Result{}
	for _, k := range fingerprintKeys(n) {
		c.Do(context.Background(), k, func() (*steady.Result, error) { return res, nil })
	}
	if c.Len() != n {
		t.Fatalf("Len = %d, want %d", c.Len(), n)
	}
	fair := n / shards
	for i := range c.shards {
		got := len(c.shards[i].m)
		if got == 0 {
			t.Fatalf("shard %d is empty (fair share %d)", i, fair)
		}
		if got > 3*fair {
			t.Fatalf("shard %d holds %d entries, > 3x fair share %d", i, got, fair)
		}
	}
}

// TestCacheParallelHitMiss hammers overlapping keys from many
// goroutines (run under -race): every key's solve runs exactly once,
// every caller gets the one shared result, and the counters add up.
func TestCacheParallelHitMiss(t *testing.T) {
	const (
		keys       = 64
		goroutines = 16
		opsEach    = 200
	)
	c := NewCache(16, 0)
	ks := fingerprintKeys(keys)
	var solves atomic.Int64
	results := make([]*steady.Result, keys)
	for i := range results {
		results[i] = &steady.Result{Solver: fmt.Sprintf("r%d", i), Throughput: rat.FromInt(int64(i))}
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for op := 0; op < opsEach; op++ {
				i := (g*opsEach + op) % keys
				res, err, _ := c.Do(context.Background(), ks[i], func() (*steady.Result, error) {
					solves.Add(1)
					return results[i], nil
				})
				if err != nil {
					t.Errorf("key %d: %v", i, err)
					return
				}
				if res != results[i] {
					t.Errorf("key %d: got result %q, want %q", i, res.Solver, results[i].Solver)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if got := solves.Load(); got != keys {
		t.Fatalf("solve functions ran %d times, want %d", got, keys)
	}
	st := c.Stats()
	if st.Solves != keys {
		t.Fatalf("Stats.Solves = %d, want %d", st.Solves, keys)
	}
	if want := int64(goroutines*opsEach - keys); st.Hits != want {
		t.Fatalf("Stats.Hits = %d, want %d", st.Hits, want)
	}
	if st.InFlight != 0 {
		t.Fatalf("InFlight = %d after quiescence", st.InFlight)
	}
}

// TestCacheInFlightDedup blocks solves on several keys (spread over
// shards) while waiters pile up, then releases them: each key must
// have solved exactly once, with every waiter sharing the outcome.
func TestCacheInFlightDedup(t *testing.T) {
	const (
		keys    = 8
		waiters = 10
	)
	c := NewCache(4, 0)
	ks := fingerprintKeys(keys)
	release := make(chan struct{})
	var started sync.WaitGroup
	started.Add(keys)
	var solves atomic.Int64

	var wg sync.WaitGroup
	claim := func(i int, first bool) {
		defer wg.Done()
		res, err, _ := c.Do(context.Background(), ks[i], func() (*steady.Result, error) {
			if first {
				started.Done()
			}
			solves.Add(1)
			<-release
			return &steady.Result{Solver: ks[i]}, nil
		})
		if err != nil || res.Solver != ks[i] {
			t.Errorf("key %d: res=%v err=%v", i, res, err)
		}
	}
	// One claimant per key first, so the solve is guaranteed in
	// flight when the waiters arrive.
	for i := 0; i < keys; i++ {
		wg.Add(1)
		go claim(i, true)
	}
	started.Wait()
	for i := 0; i < keys; i++ {
		for j := 0; j < waiters; j++ {
			wg.Add(1)
			go claim(i, false)
		}
	}
	if got := c.Stats().InFlight; got != keys {
		t.Fatalf("InFlight = %d with %d blocked solves", got, keys)
	}
	close(release)
	wg.Wait()

	if got := solves.Load(); got != keys {
		t.Fatalf("solves ran %d times, want %d", got, keys)
	}
	st := c.Stats()
	if st.Solves != keys || st.Hits != keys*waiters {
		t.Fatalf("stats = %+v, want %d solves and %d hits", st, keys, keys*waiters)
	}
}

// TestCacheCanceledSolveEvicted re-checks the cancellation contract
// on the sharded cache: a canceled solve's key is evicted, waiters
// re-claim it, and Solves counts only real completions.
func TestCacheCanceledSolveEvicted(t *testing.T) {
	c := NewCache(4, 0)
	key := fingerprintKeys(1)[0]

	_, err, _ := c.Do(context.Background(), key, func() (*steady.Result, error) {
		return nil, context.Canceled
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if st := c.Stats(); st.Solves != 0 || st.Entries != 0 {
		t.Fatalf("canceled solve left stats %+v", st)
	}

	res, err, hit := c.Do(context.Background(), key, func() (*steady.Result, error) {
		return &steady.Result{Solver: "real"}, nil
	})
	if err != nil || hit || res.Solver != "real" {
		t.Fatalf("re-solve after eviction: res=%v err=%v hit=%v", res, err, hit)
	}
	if st := c.Stats(); st.Solves != 1 || st.Entries != 1 {
		t.Fatalf("stats after re-solve = %+v", st)
	}
}

// doneCounter is a context that counts how often it is asked for Done.
type doneCounter struct {
	context.Context
	calls atomic.Int64
}

func (d *doneCounter) Done() <-chan struct{} {
	d.calls.Add(1)
	return d.Context.Done()
}

// TestCacheHitIgnoresContext: a completed entry is returned without
// consulting the caller's context. A cancelled caller still gets the
// cached answer — every time, not when a select happens to pick the
// entry over the context — and a hit never asks the context for Done,
// which is what would start a server's hang-up watch.
func TestCacheHitIgnoresContext(t *testing.T) {
	c := NewCache(4, 0)
	key := fingerprintKeys(1)[0]
	want := &steady.Result{Solver: "cached"}
	c.Do(context.Background(), key, func() (*steady.Result, error) { return want, nil })
	unreachable := func() (*steady.Result, error) {
		t.Fatal("a hit ran the solve")
		return nil, nil
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	const calls = 1000
	hits := 0
	for range calls {
		if res, err, hit := c.Do(cancelled, key, unreachable); err == nil && hit && res == want {
			hits++
		}
	}
	if hits != calls {
		t.Fatalf("a cancelled caller got the cached answer %d times in %d", hits, calls)
	}

	counting := &doneCounter{Context: context.Background()}
	if _, err, hit := c.Do(counting, key, unreachable); err != nil || !hit {
		t.Fatalf("hit = %v, err = %v", hit, err)
	}
	if n := counting.calls.Load(); n != 0 {
		t.Fatalf("a hit asked its context for Done %d times", n)
	}
}

// TestCachePanickingSolveFreesItsKey: a solve that panics — a custom
// Solver's bug, an engine invariant — takes its own caller down and
// nobody else. The claim is settled on the way out: the panic reaches
// the claimant's caller, a caller already waiting on the key and one
// arriving later both solve it for real, and the counters read as if
// the panicking solve had never been claimed. (Before the claim was
// settled by defer the entry stayed in flight for good, and every later
// Do on the key blocked until its own context ended.)
func TestCachePanickingSolveFreesItsKey(t *testing.T) {
	c := NewCache(4, 0)
	key := fingerprintKeys(1)[0]
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	real := func() (*steady.Result, error) { return &steady.Result{Solver: "real"}, nil }

	waited := make(chan error, 1)
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("recovered %v, want the solve's own panic", r)
			}
		}()
		c.Do(ctx, key, func() (*steady.Result, error) {
			// The waiter below finds the key claimed; whether it is
			// already parked on it when the panic comes is the
			// scheduler's choice, and must not matter.
			go func() {
				res, err, _ := c.Do(ctx, key, real)
				if err == nil && res.Solver != "real" {
					err = fmt.Errorf("waiter got %+v", res)
				}
				waited <- err
			}()
			runtime.Gosched()
			panic("boom")
		})
	}()
	if err := <-waited; err != nil {
		t.Fatalf("a caller waiting on the panicked claim: %v", err)
	}
	res, err, hit := c.Do(ctx, key, real)
	if err != nil || !hit || res.Solver != "real" {
		t.Fatalf("after the panic: res=%v err=%v hit=%v, want a hit on the waiter's solve", res, err, hit)
	}
	if st := c.Stats(); st.Solves != 1 || st.InFlight != 0 || st.Entries != 1 {
		t.Fatalf("stats after the panic = %+v, want 1 solve, none in flight, 1 entry", st)
	}
}

// TestCacheBoundNeverExceeded pins the capacity contract after
// sharding: per-shard bounds are the floor of bound/shards, so total
// capacity stays at or under the requested bound even when it does
// not divide evenly.
func TestCacheBoundNeverExceeded(t *testing.T) {
	const bound = 20
	c := NewCache(16, bound)
	for _, k := range fingerprintKeys(5 * bound) {
		c.Do(context.Background(), k, func() (*steady.Result, error) { return &steady.Result{}, nil })
	}
	if got := c.Len(); got > bound {
		t.Fatalf("cache holds %d entries, bound %d", got, bound)
	}
}

// TestCacheTinyBoundClampsShards pins the capacity contract: a cache
// whose bound is smaller than its shard count shrinks the shard
// count, so total capacity equals the requested bound instead of
// silently becoming one entry per shard.
func TestCacheTinyBoundClampsShards(t *testing.T) {
	c := NewCache(16, 1)
	if c.Shards() != 1 {
		t.Fatalf("Shards = %d, want 1", c.Shards())
	}
	ks := fingerprintKeys(3)
	for _, k := range ks {
		c.Do(context.Background(), k, func() (*steady.Result, error) { return &steady.Result{}, nil })
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (bound)", c.Len())
	}
}
