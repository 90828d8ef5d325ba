package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/pkg/steady"
	"repro/pkg/steady/batch"
	"repro/pkg/steady/cluster"
	"repro/pkg/steady/control"
	"repro/pkg/steady/obs"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/server"
)

// replayInputs is how many of a workload's generated inputs the traced
// run pushes through the layers' public functions in process.
const replayInputs = 512

// allocsPer reports heap allocations per call of f over n calls.
func allocsPer(n int, f func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// serve pushes one request body through a handler the way net/http
// would, minus the socket.
func serve(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// replaySolve walks the inputs of a /v1/solve workload through the
// same public functions the daemon's handler calls, one span per call,
// and through a whole in-process server with and without metrics. hot
// says the inputs are cache-resident when timed, as they are on the
// live daemon.
func replaySolve(ctx context.Context, tr *tracer, inputs []input, hot bool) (map[string]float64, error) {
	solver, err := steady.New(steady.Spec{Problem: problem})
	if err != nil {
		return nil, err
	}
	on := server.New(server.Config{})
	defer on.Close()
	off := server.New(server.Config{DisableMetrics: true})
	defer off.Close()
	hOn, hOff := on.Handler(), off.Handler()
	cache := batch.NewCache(0, 0)
	reg := obs.New()
	solve := func(in *input) func(context.Context, ...steady.SolveOption) (*steady.Result, error) {
		return func(sctx context.Context, opts ...steady.SolveOption) (*steady.Result, error) {
			return solver.Solve(sctx, in.plat, opts...)
		}
	}
	key := func(in *input) string { return batch.Key(steady.Fingerprint(in.plat), solver.Name()) }
	if hot {
		for i := range inputs {
			in := &inputs[i]
			serve(hOn, "/v1/solve", in.body)
			serve(hOff, "/v1/solve", in.body)
			if _, err, _ := cache.DoSolve(ctx, key(in), solver.Name(), solve(in)); err != nil {
				return nil, err
			}
		}
	}

	respBytes := 0
	for i := range inputs {
		in := &inputs[i]
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		reqStart := time.Now()
		var rec *httptest.ResponseRecorder
		tr.time(i, "server.inproc", "request", func() { rec = serve(hOn, "/v1/solve", in.body) })
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("replay: in-process server answered %d: %.200s", rec.Code, rec.Body.Bytes())
		}
		respBytes += rec.Body.Len()
		tr.time(i, "server.inproc_noobs", "request", func() { serve(hOff, "/v1/solve", in.body) })
		raw := platformJSON(in.plat)
		tr.time(i, "platform.decode", "request", func() { _, err = decodePlatform(raw) })
		if err != nil {
			return nil, err
		}
		var fp string
		tr.time(i, "steady.fingerprint", "request", func() { fp = steady.Fingerprint(in.plat) })
		if hot {
			k := batch.Key(fp, solver.Name())
			var hit bool
			tr.time(i, "batch.hit", "request", func() { _, err, hit = cache.DoSolve(ctx, k, solver.Name(), solve(in)) })
			if err != nil || !hit {
				return nil, fmt.Errorf("replay: resident key missed (%v)", err)
			}
		} else {
			start := time.Now()
			tr.time(i, "steady.solve", "request", func() {
				_, err = solver.Solve(ctx, in.plat, steady.FloatFirst(), steady.WithObs(reg))
			})
			if err != nil {
				return nil, err
			}
			// The LP layer's own spans, read back from its registry,
			// hang under the solve that caused them.
			for _, sp := range reg.RecentSpans() {
				if sp.Start.Before(start) {
					continue
				}
				name, parent := "", ""
				switch sp.Stage {
				case "lp_solve":
					name, parent = "lp.solve", "steady.solve"
				case "lp_float_search":
					name, parent = "lp.float_search", "lp.solve"
				case "lp_certify":
					name, parent = "lp.certify", "lp.solve"
				default:
					continue
				}
				tr.add(i, name, parent, sp.Start, sp.Start.Add(sp.Duration))
			}
		}
		tr.add(i, "request", "", reqStart, time.Now())
	}

	dur, self := durations(tr.spans), selfTimes(tr.spans)
	m := map[string]float64{
		"server.inproc_us":      medianOf(dur["server.inproc"]),
		"server.resp_bytes":     float64(respBytes) / float64(len(inputs)),
		"platform.decode_us":    medianOf(dur["platform.decode"]),
		"steady.fingerprint_us": medianOf(dur["steady.fingerprint"]),
		"obs.tax_us":            medianOf(dur["server.inproc"]) - medianOf(dur["server.inproc_noobs"]),
	}
	inner := m["platform.decode_us"] + m["steady.fingerprint_us"]
	if hot {
		m["batch.hit_us"] = medianOf(dur["batch.hit"])
		inner += m["batch.hit_us"]
	} else {
		m["lp.replay_solve_us"] = medianOf(dur["lp.solve"])
		m["steady.build_us"] = medianOf(self["steady.solve"])
		inner += medianOf(dur["steady.solve"])
	}
	m["server.self_us"] = m["server.inproc_us"] - inner

	// Allocation counts come from separate untimed passes, so the
	// MemStats reads never sit inside a span.
	n := len(inputs)
	if !hot && n > 128 {
		n = 128 // every in-process pass over cold inputs is a full solve
	}
	if !hot {
		// Distinct inputs would hit the replay server's cache on a
		// second pass; a fresh one keeps them misses.
		fresh := server.New(server.Config{})
		defer fresh.Close()
		hOn = fresh.Handler()
	}
	raws := make([][]byte, n)
	for i := range raws {
		raws[i] = platformJSON(inputs[i].plat)
	}
	m["platform.decode_allocs"] = allocsPer(n, func(i int) { _, _ = decodePlatform(raws[i]) })
	m["steady.fingerprint_allocs"] = allocsPer(n, func(i int) { steady.Fingerprint(inputs[i].plat) })
	m["server.allocs_per_op"] = allocsPer(n, func(i int) { serve(hOn, "/v1/solve", inputs[i].body) })
	return m, nil
}

// replayRing times cluster.Ring.Owner over the hot set's cache keys on
// a two-peer ring like the live one.
func replayRing(inputs []input) float64 {
	ring := cluster.NewRing([]string{"http://127.0.0.1:1", "http://127.0.0.1:2"}, 0)
	keys := make([]string, len(inputs))
	for i := range inputs {
		keys[i] = batch.Key(steady.Fingerprint(inputs[i].plat), problem)
	}
	const rounds = 200
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, k := range keys {
			ring.Owner(k)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(rounds*len(keys))
}

// replayControl drives an in-process control.Manager through the
// workload's regimes with a synthetic clock and times the ticks that
// re-solve: drift detection, estimate, warm re-solve and publish,
// without the epoch wait, HTTP or SSE.
func replayControl(ctx context.Context, tr *tracer, d *driftDriver) (map[string]float64, error) {
	m := control.NewManager(control.Config{Epoch: time.Hour, MinResolveInterval: time.Nanosecond})
	defer m.Close()
	if _, err := m.Create(ctx, deploymentID, steady.Spec{Problem: problem}, d.base); err != nil {
		return nil, err
	}
	regimes := newRegimeGen(d.seed, d.base)
	now := time.Now()
	for r := 0; r < replayInputs; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		batchObs := observations(d.base, regimes.next())
		for b := 0; b < batchesPerRegime; b++ {
			if _, err := m.Observe(deploymentID, batchObs); err != nil {
				return nil, err
			}
		}
		now = now.Add(time.Second)
		start := time.Now()
		if m.Tick(ctx, now) == 1 {
			tr.add(r, "control.tick", "", start, time.Now())
		}
	}
	var fp []float64
	for i := 0; i < replayInputs; i++ {
		t0 := time.Now()
		steady.Fingerprint(d.base)
		fp = append(fp, micros(time.Since(t0)))
	}
	return map[string]float64{
		"control.tick_us":       medianOf(durations(tr.spans)["control.tick"]),
		"steady.fingerprint_us": medianOf(fp),
	}, nil
}

// decodePlatform is the handler's decode step: canonical platform JSON
// to a validated platform.
func decodePlatform(raw []byte) (*platform.Platform, error) {
	return platform.ReadJSON(bytes.NewReader(raw))
}
