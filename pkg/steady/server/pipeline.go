package server

import (
	"context"
	"errors"
	"strings"
	"time"
	"unsafe"

	"repro/internal/jsonscan"
	"repro/pkg/steady"
	"repro/pkg/steady/batch"
	"repro/pkg/steady/platform"
)

// This file is the solve pipeline: the one path from a request's fields
// to a certified result, whichever endpoint the request came in on
// (docs/ARCHITECTURE.md draws which stage each endpoint enters at).
//
//	scan     a /v1/solve body in its plain spelling -> spec fields + platform JSON
//	resolve  spec fields + platform JSON -> solver, platform, cache key
//	solve    cache lookup -> on a miss: gate -> LP -> observe

// newSolver builds the solver a request's spec fields name.
func newSolver(req *SolveRequest) (steady.Solver, error) {
	spec, err := req.Spec()
	if err != nil {
		return nil, err
	}
	return steady.New(spec)
}

// resolve is the front half: the request's spec fields become a
// solver, its platform JSON doc — req.Platform's bytes, or the span of
// the scanner's string that req.Platform holds — a platform within the
// server's size limits, the two together the cache key. Every error
// maps through statusFor (400, or 413 for an oversized platform).
func (s *Server) resolve(req *SolveRequest, doc string) (steady.Solver, *platform.Platform, string, error) {
	solver, err := newSolver(req)
	if err != nil {
		return nil, nil, "", err
	}
	p, err := decodePlatform(doc, s.cfg.MaxNodes, s.cfg.MaxEdges)
	if err != nil {
		return nil, nil, "", err
	}
	return solver, p, batch.KeyFor(p, solver), nil
}

// scanSolveRequest reads a SolveRequest in its plain spelling in one
// pass — the five keys in any order, each a plain string, targets an
// array of them — without reading the platform: that value is passed
// over by bracket count (jsonscan.Cursor.Skip), left in req.Platform as
// the bytes of raw it spans and returned as the same span of raw read
// as a string, for platform.DecodeJSON to judge without copying the
// body. Like scanTelemetry it is a second reader of the language
// decodeStrict accepts, never a second definition: on another key or
// another case of one, a duplicate, a null, an escape, a backslash
// anywhere in the platform, or anything after the closing brace it
// reports false without an opinion. When it reports true and DecodeJSON
// accepts the platform, decodeStrict would have accepted raw and
// produced the same request (FuzzSolveScan): a value either of
// DecodeJSON's readers accepts in full is one complete JSON value, so
// it is what the json.RawMessage would have held.
//
// raw is read in place (unsafe.String), and it is a pooled buffer that
// the next request overwrites once this one has its reply (see
// handleSolve). So every string of req is a clone: a substring of raw
// would change under a later request — and a solver name is remembered
// for as long as the memo and the cache hold the request. DecodeJSON
// copies the node names it keeps out of the platform span, and req
// itself, with its Platform, dies with the request.
func scanSolveRequest(raw []byte, req *SolveRequest) (platformDoc string, ok bool) {
	c := jsonscan.New(unsafe.String(unsafe.SliceData(raw), len(raw)))
	kept := func() (string, bool) {
		s, ok := c.Str()
		return strings.Clone(s), ok
	}
	ok = c.Object(func(key string) (bit uint, ok bool) {
		switch key {
		case "problem":
			bit = 1
			req.Problem, ok = kept()
		case "root":
			bit = 2
			req.Root, ok = kept()
		case "targets":
			bit = 4
			ok = c.Array(func() bool {
				t, ok := kept()
				req.Targets = append(req.Targets, t)
				return ok
			})
		case "model":
			bit = 8
			req.Model, ok = kept()
		case "platform":
			bit = 16
			platformDoc, ok = c.Skip()
			req.Platform = raw[c.Pos()-len(platformDoc) : c.Pos()]
		}
		return bit, ok
	}) && c.End()
	return platformDoc, ok
}

// scanSolve is resolve behind scanSolveRequest: the fast path of
// parseSolve, taken only when the body scans and everything resolve
// checks holds. Any failure — the scanner's, the platform's, a size
// limit, the spec — is reported as a plain false, and the body goes to
// decodeStrict and resolve again for its verdict.
func (s *Server) scanSolve(raw []byte) (steady.Solver, *platform.Platform, string, bool) {
	var req SolveRequest
	doc, ok := scanSolveRequest(raw, &req)
	if !ok {
		return nil, nil, "", false
	}
	solver, p, key, err := s.resolve(&req, doc)
	return solver, p, key, err == nil
}

// target yields what a cache miss solves. It is a function because
// /v1/solve's memo can name a key without decoding the body behind it:
// only a miss pays for the solver and the platform.
type target func() (steady.Solver, *platform.Platform, error)

// resolved is the target of a caller that already holds both.
func resolved(solver steady.Solver, p *platform.Platform) target {
	return func() (steady.Solver, *platform.Platform, error) { return solver, p, nil }
}

// solve is the back half, the only place the server consults its LP
// cache. A miss resolves its target and runs the LP under the
// concurrency gate; hit or miss, the request lands in the solver's
// /v1/stats histogram. extra is the caller's own options, after the
// cache's.
func (s *Server) solve(ctx context.Context, key, solverName string, miss target, extra ...steady.SolveOption) (*steady.Result, bool, error) {
	start := time.Now()
	res, err, hit := s.cache.DoSolve(ctx, key, solverName, func(sctx context.Context, opts ...steady.SolveOption) (*steady.Result, error) {
		solver, p, err := miss()
		if err != nil {
			return nil, err
		}
		return s.gatedSolve(sctx, solver, p, append(opts, extra...)...)
	})
	s.metrics.observe(solverName, time.Since(start), err != nil, hit)
	return res, hit, err
}

// errSaturated reports that every MaxInFlight slot stayed busy for
// the whole QueueWait window; statusFor maps it to 503 and writeErr
// adds a Retry-After header. Load shedding beats unbounded queueing:
// a client told to retry in a second costs nothing while it waits, a
// queued request holds a connection and a goroutine.
var errSaturated = errors.New("server saturated: all solve slots busy")

// acquire claims a solve slot. A free slot is claimed immediately;
// otherwise the request waits up to QueueWait (absorbing bursts), then
// gives up with errSaturated.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	t := time.NewTimer(s.cfg.QueueWait)
	defer t.Stop()
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return errSaturated
	}
}

func (s *Server) release() { <-s.sem }

// gatedSolve runs one solve under the concurrency gate and the
// per-solve timeout. It is the only path on which LPs run, for every
// endpoint, so MaxInFlight bounds the whole server. The slot is held
// for exactly as long as the LP runs: a solve stops with its context
// (steady.Solver), so a timed-out request answers 504 and its slot is
// free for the next one.
func (s *Server) gatedSolve(ctx context.Context, solver steady.Solver, p *platform.Platform, opts ...steady.SolveOption) (*steady.Result, error) {
	if err := s.acquire(ctx); err != nil {
		return nil, err
	}
	defer s.release()
	sctx, cancel := context.WithTimeout(ctx, s.cfg.SolveTimeout)
	defer cancel()
	return solver.Solve(sctx, p, opts...)
}

// gatedSolver is how a sweep job enters the pipeline: the batch engine
// has already looked the job up in the shared cache under the same key
// (batch.KeyFor), so its Solve is the miss stage from the gate on. Name
// is the inner solver's name, so sweep cache keys coincide with every
// other endpoint's.
type gatedSolver struct {
	s     *Server
	inner steady.Solver
}

func (g gatedSolver) Name() string { return g.inner.Name() }

func (g gatedSolver) Solve(ctx context.Context, p *platform.Platform, opts ...steady.SolveOption) (*steady.Result, error) {
	return g.s.gatedSolve(ctx, g.inner, p, opts...)
}
