package batch

import (
	"context"
	"hash/maphash"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/pkg/steady"
	"repro/pkg/steady/obs"
	"repro/pkg/steady/platform"
)

// Cache is a sharded LP-solution cache with in-flight deduplication.
// Keys are "fingerprint|solver" strings (see Key); each key is owned
// by exactly one of N shards, selected by hashing the key, so
// concurrent lookups on distinct keys contend only when they land on
// the same shard. This is what lets a long-running service (or a
// wide batch sweep) serve cache hits from many goroutines without a
// single mutex serializing them.
//
// Semantics per key:
//
//   - the first caller of Do for a key claims it and runs the solve;
//     every concurrent duplicate blocks on the claim instead of
//     re-solving;
//   - errors are cached like results (an infeasible instance fails
//     once, not once per duplicate), EXCEPT cancellation: a canceled
//     or timed-out solve says nothing about the instance, so its key
//     is evicted and the next caller re-solves it;
//   - eviction is per shard: at the shard's bound, inserting a new
//     entry drops one completed entry; in-flight entries are never
//     evicted, their waiters hold them.
//
// A Cache is safe for concurrent use and may be shared between
// consumers (every solve-shaped endpoint of pkg/steady/server goes
// through one), so a result solved for one front-end is a hit for the
// others.
type Cache struct {
	shards []cacheShard
	seed   maphash.Seed

	solves   atomic.Int64
	hits     atomic.Int64
	inflight atomic.Int64

	pivots atomic.Int64

	floatSolves    atomic.Int64
	floatPivots    atomic.Int64
	exactFallbacks atomic.Int64

	// obsReg, when non-nil, is forwarded to the LP layer on every miss
	// (see SetObs). The per-shard instruments live on the shards.
	obsReg *obs.Registry
}

type cacheShard struct {
	mu    sync.Mutex
	m     map[string]*entry
	bound int // max entries in this shard; <= 0 means unbounded

	// Per-shard instruments, resolved once by SetObs; all nil-safe, so
	// the unobserved cache pays only nil checks.
	hits      *obs.Counter
	misses    *obs.Counter
	dedup     *obs.Counter
	evictions *obs.Counter
}

// DefaultCacheShards is the shard count used when NewCache is given
// shards <= 0. 16 shards keep per-shard contention negligible for a
// worker pool or HTTP server of typical size while costing only a few
// hundred bytes of overhead.
const DefaultCacheShards = 16

// CacheStats is a point-in-time snapshot of cache counters.
type CacheStats struct {
	// Solves is the number of LPs actually run (cache misses, net of
	// canceled solves whose entries were evicted).
	Solves int64
	// Hits is the number of lookups served from a completed entry.
	Hits int64
	// InFlight is the number of solves currently running.
	InFlight int64
	// Entries is the current number of cached entries across shards.
	Entries int
	// Shards is the shard count the cache was built with.
	Shards int
	// Pivots is the total simplex pivot count across all solves. It
	// counts only exact rational pivots (float search pivots are
	// reported separately in FloatPivots).
	Pivots int64
	// FloatSolves is the number of solves whose float64 search pivoted
	// or fell back, and FloatPivots their search pivots. ExactFallbacks
	// counts solves whose float basis was refused for the exact
	// two-phase walk (Result.CertifiedCold) — every cached result is
	// exact and certified either way.
	FloatSolves    int64
	FloatPivots    int64
	ExactFallbacks int64
}

// HitRate is Hits / (Hits + Solves), or 0 before any traffic.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Solves
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// NewCache builds a cache with the given shard count and total entry
// bound. shards <= 0 selects DefaultCacheShards; bound <= 0 means
// unbounded. The bound is split across shards rounding down, so
// total capacity never exceeds the stated bound (a non-divisible
// bound forgoes at most shards-1 entries), and the shard count is
// clamped to the bound so a tiny cache (bound < shards) still evicts
// at its stated capacity instead of silently holding one entry per
// shard.
func NewCache(shards, bound int) *Cache {
	if shards <= 0 {
		shards = DefaultCacheShards
	}
	if bound > 0 && shards > bound {
		shards = bound
	}
	c := &Cache{
		shards: make([]cacheShard, shards),
		seed:   maphash.MakeSeed(),
	}
	perShard := 0
	if bound > 0 {
		perShard = bound / shards
	}
	for i := range c.shards {
		c.shards[i] = cacheShard{m: map[string]*entry{}, bound: perShard}
	}
	return c
}

// Key renders the canonical cache key for a platform fingerprint and
// a solver name.
func Key(fingerprint, solver string) string { return fingerprint + "|" + solver }

// KeyFor is the cache key of solving p with solver: every consumer of
// a shared Cache must key a (platform, solver) pair the same way for
// one's solve to be another's hit, so this is the one place the recipe
// is spelled.
func KeyFor(p *platform.Platform, solver steady.Solver) string {
	return Key(steady.Fingerprint(p), solver.Name())
}

func (c *Cache) shard(key string) *cacheShard {
	return &c.shards[maphash.String(c.seed, key)%uint64(len(c.shards))]
}

// Shards returns the shard count.
func (c *Cache) Shards() int { return len(c.shards) }

// Len returns the current number of cached entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// Stats returns a snapshot of the cumulative counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Solves:   c.solves.Load(),
		Hits:     c.hits.Load(),
		InFlight: c.inflight.Load(),
		Entries:  c.Len(),
		Shards:   len(c.shards),
		Pivots:   c.pivots.Load(),

		FloatSolves:    c.floatSolves.Load(),
		FloatPivots:    c.floatPivots.Load(),
		ExactFallbacks: c.exactFallbacks.Load(),
	}
}

// SetObs attaches a metrics registry to the cache: per-shard
// hit/miss/dedup-wait/eviction counters, entry and in-flight gauges,
// and — via DoSolve — the LP layer's per-solve metrics. Call it once,
// before the cache serves traffic (the server does so at
// construction); the instruments are resolved eagerly so the hot path
// pays no registry lookups. A nil registry is a no-op.
func (c *Cache) SetObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c.obsReg = reg
	hits := reg.CounterVec("steady_cache_hits_total", "Cache lookups served from a completed entry, by shard.", "shard")
	misses := reg.CounterVec("steady_cache_misses_total", "Cache lookups that claimed the key and ran the solve, by shard.", "shard")
	dedup := reg.CounterVec("steady_cache_dedup_waits_total", "Cache lookups that blocked on another caller's in-flight solve, by shard.", "shard")
	evict := reg.CounterVec("steady_cache_evictions_total", "Completed entries dropped to make room, by shard.", "shard")
	for i := range c.shards {
		label := strconv.Itoa(i)
		sh := &c.shards[i]
		sh.hits = hits.With(label)
		sh.misses = misses.With(label)
		sh.dedup = dedup.With(label)
		sh.evictions = evict.With(label)
	}
	reg.GaugeFunc("steady_cache_entries", "Cached LP solutions currently resident.", func() float64 {
		return float64(c.Len())
	})
	reg.GaugeFunc("steady_cache_inflight", "Cache-claimed solves currently running.", func() float64 {
		return float64(c.inflight.Load())
	})
}

// noteResult records a successful solve in the pivot counters.
func (c *Cache) noteResult(res *steady.Result) {
	if res == nil {
		return
	}
	c.pivots.Add(int64(res.Pivots))
	if res.FloatPivots > 0 || res.CertifiedCold {
		c.floatSolves.Add(1)
		c.floatPivots.Add(int64(res.FloatPivots))
		if res.CertifiedCold {
			c.exactFallbacks.Add(1)
		}
	}
}

// DoSolve is Do for a steady.Solver's solve: on a miss it runs solve
// with the cache's observability option and records the outcome in the
// counters. Every solve is a function of its spec and platform alone,
// so a cached reply does not depend on which requests came before it,
// and a §5.5 re-plan of an estimate is an ordinary miss or hit of it.
//
// The LP search of a miss happens in float64 and only the exactly
// certified result is returned — and therefore cached. An
// uncertifiable float result never reaches the cache by construction:
// certification failure re-solves with the exact walk inside the same
// call (the result then reports CertifiedCold), and a solve error is
// cached only as an error, never as a value.
func (c *Cache) DoSolve(ctx context.Context, key, solver string, solve func(context.Context, ...steady.SolveOption) (*steady.Result, error)) (*steady.Result, error, bool) {
	return c.Do(ctx, key, func() (*steady.Result, error) {
		var opts []steady.SolveOption
		if c.obsReg != nil {
			opts = append(opts, steady.WithObs(c.obsReg))
		}
		res, err := solve(ctx, opts...)
		if err == nil {
			c.noteResult(res)
		}
		return res, err
	})
}

// Do resolves key against the cache, running solve only for the
// first caller to claim the key. Concurrent callers with the same key
// block until the claimant finishes and then share its outcome (the
// third return reports such a hit). If the claimant's solve is
// canceled, times out or panics, the key is evicted and one of the
// waiters re-claims it, unless its own ctx is already done.
//
// solve runs on the caller's goroutine; it should honor the ctx it
// captured. Results are shared across callers without copying, which
// is safe because solver results are immutable by convention.
func (c *Cache) Do(ctx context.Context, key string, solve func() (*steady.Result, error)) (*steady.Result, error, bool) {
	sh := c.shard(key)
	for {
		sh.mu.Lock()
		ent, hit := sh.m[key]
		if !hit {
			// Until solve returns the claim reads as a canceled one, which
			// is how a panic in solve leaves it: settled on the way out
			// like any other, so the key is free again and whoever waited
			// on it solves for themselves while the panic goes on up.
			ent = &entry{done: make(chan struct{}), err: context.Canceled}
			sh.evictLocked()
			sh.m[key] = ent
			sh.mu.Unlock()
			sh.misses.Inc()
			c.solves.Add(1)
			c.inflight.Add(1)
			defer func() {
				c.inflight.Add(-1)
				if canceled(ent.err) {
					// Evict the key so a later caller solves it for real.
					sh.mu.Lock()
					delete(sh.m, key)
					sh.mu.Unlock()
					c.solves.Add(-1)
				}
				close(ent.done)
			}()
			ent.res, ent.err = solve()
			return ent.res, ent.err, false
		}
		sh.mu.Unlock()

		// A completed entry is a plain hit and never looks at ctx: a
		// select on both would refuse a cached answer to a cancelled
		// caller at random, and asking a request's context for Done is
		// what makes the server watch the connection. Only a wait on an
		// in-flight solve depends on ctx.
		select {
		case <-ent.done:
		default:
			sh.dedup.Inc()
			select {
			case <-ent.done:
			case <-ctx.Done():
				return nil, ctx.Err(), false
			}
		}
		if canceled(ent.err) {
			// The solve this caller was waiting on ran under another
			// caller's context and was canceled there, which says nothing
			// about this call. Its key has been evicted, so claim it
			// ourselves unless our own ctx is gone.
			if err := ctx.Err(); err != nil {
				return nil, err, false
			}
			continue
		}
		sh.hits.Inc()
		c.hits.Add(1)
		return ent.res, ent.err, true
	}
}

// evictLocked makes room for one insertion under sh.mu: at the
// bound, it drops one completed entry (map order, effectively
// random). In-flight entries are never evicted — their waiters hold
// them.
func (sh *cacheShard) evictLocked() {
	if sh.bound <= 0 || len(sh.m) < sh.bound {
		return
	}
	for k, old := range sh.m {
		select {
		case <-old.done:
			delete(sh.m, k)
			sh.evictions.Inc()
			return
		default:
		}
	}
}
